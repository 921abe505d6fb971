"""``serve-mlp-wire`` / ``serve-resnet-wire``: open-loop load over the wire.

Set-up trains a seeded short FF-INT8 run, exports and saves the artifact,
and starts ``perfbench.server`` in a subprocess until it listens.  Each
round sets up afresh and the load generator drives three phases on one
connection: Poisson arrivals at a fixed ``low`` rate (requests arrive
alone), at a fixed ``high`` rate (batches form), and a saturation phase
that keeps a fixed window of requests outstanding.  Latency is timed from
when a request was due.  Every ``ok`` label is checked against the
in-process ``Int8InferenceEngine.predict`` label of the same input.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import (
    FFInt8Config,
    FFInt8Trainer,
    build_engine,
    build_model,
    export_artifact,
    save_artifact,
    synthetic_cifar10,
    synthetic_mnist,
)
from repro.runtime.plan import STEP_KINDS
from repro.serve.registry import artifact_fingerprint

from perfbench.stats import (
    cyclic_indices,
    poisson_offsets,
    summarize,
    tail_percentile,
    zipf_indices,
)
from perfbench.wire import LoadGenerator, Phase

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class ServeWorkload:
    """Fixed rates, limit and inputs of one wire-serving workload."""

    model: str
    dataset: str
    image_size: int
    low_rps: float
    high_rps: float
    limit_ms: float
    window: int
    pool_size: int
    #: Zipf exponent of input popularity; ``None`` sends the pool in
    #: round-robin order, so no input recurs within the cache's capacity.
    zipf: Optional[float]
    train_samples: int
    #: Interleaved rounds of the three phases; latency statistics are
    #: medians over rounds, so more rounds damp a noisy stretch better
    #: while each round still needs samples enough for its tail.
    rounds: int

    def planned(self, phase: str, seconds: float) -> int:
        """Expected requests in one round of ``phase``."""
        rate = self.low_rps if phase == "low" else self.high_rps
        return int(rate * PHASE_SHARE[phase] * seconds / self.rounds)


#: Share of ``--seconds`` each measured phase gets, split over the rounds.
PHASE_SHARE = {"low": 0.5, "high": 0.3, "sat": 0.2}
#: Phase length the tail percentiles are fixed for (``run_seconds``).
PLANNED_SECONDS = 45.0
WARMUP_S = 0.5
#: Open-loop phases last long enough to expect this many requests even
#: for a tiny ``--seconds``.
MIN_EXPECTED = 10
ORACLE_BATCH = 64
DRAIN_S = 15.0

WORKLOADS: Dict[str, ServeWorkload] = {
    # The engine answers one mlp-mini sample in ~0.3 ms, so the frontend,
    # batcher, cache and wire dominate.  2048 inputs under Zipf(0.6)
    # popularity overflow the default 256-entry prediction cache and hit
    # it ~27% of the time, so the median request still misses.  High is
    # ~20% of the pipelined peak: open-loop bursts at 1000-2000/s already
    # shed at the default 128-deep admission bound when the host stalls.
    "serve-mlp-wire": ServeWorkload(
        model="mlp-mini", dataset="mnist", image_size=14,
        low_rps=340.0, high_rps=700.0, limit_ms=20.0, window=64,
        pool_size=2048, zipf=0.6, train_samples=128, rounds=10,
    ),
    # The conv engine is ~75% of server time at the low rate (most of the
    # rest is the batcher's coalescing wait); round-robin inputs from a
    # pool larger than the cache keep the hit ratio at 0.
    "serve-resnet-wire": ServeWorkload(
        model="resnet18-mini", dataset="cifar10", image_size=16,
        low_rps=13.0, high_rps=70.0, limit_ms=250.0, window=16,
        pool_size=320, zipf=None, train_samples=64, rounds=3,
    ),
}


def tail_pcts(spec: ServeWorkload) -> Dict[str, float]:
    """Fixed tail percentile of one round of the ``low`` and ``high`` phases."""
    return {phase: tail_percentile(spec.planned(phase, PLANNED_SECONDS))
            for phase in ("low", "high")}


# --------------------------------------------------------------------------- #
# set-up
# --------------------------------------------------------------------------- #
def _datasets(spec: ServeWorkload, seed: int, test_samples: int):
    make = synthetic_mnist if spec.dataset == "mnist" else synthetic_cifar10
    return make(num_train=spec.train_samples, num_test=test_samples,
                seed=seed, image_size=spec.image_size)


def _input_shape(spec: ServeWorkload) -> Tuple[int, int, int]:
    channels = 1 if spec.dataset == "mnist" else 3
    return (channels, spec.image_size, spec.image_size)


def train_artifact(spec: ServeWorkload, seed: int):
    """Seeded short FF-INT8 run, frozen the way ``repro export`` does."""
    train, _ = _datasets(spec, seed, test_samples=16)
    bundle = build_model(spec.model, input_shape=_input_shape(spec))
    config = FFInt8Config(epochs=1, batch_size=64, overlay_amplitude=2.0,
                          evaluate_every=2, seed=seed)
    history = FFInt8Trainer(config).fit(bundle, train)
    return export_artifact(
        history.metadata["units"], bundle, goodness=config.goodness,
        overlay_amplitude=config.overlay_amplitude, theta=config.theta,
        registry_name=spec.model,
        registry_kwargs={"input_shape": list(_input_shape(spec))},
    )


class ServerProcess:
    """``perfbench.server`` in a subprocess, stopped by a line on stdin."""

    def __init__(self, artifact_path: str, name: str, trace: bool) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.server",
             "--artifact", artifact_path, "--name", name,
             "--trace", "1" if trace else "0"],
            cwd=str(ROOT), env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        try:
            self.port = int(json.loads(self._readline(60.0))["port"])
        except BaseException:
            self.kill()
            raise

    def _readline(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise RuntimeError("server did not answer in time")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server exited with code {self.proc.wait(timeout=10)}")
        return line

    def peak_rss_mb(self) -> float:
        """The server's VmHWM (peak resident set size)."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def set_tracing(self, enabled: bool) -> None:
        """Switch a ``--trace 1`` server's span recording on or off."""
        self.proc.stdin.write(json.dumps({"trace": enabled}) + "\n")
        self.proc.stdin.flush()
        if json.loads(self._readline(30.0)) != {"trace": enabled}:
            raise RuntimeError("server did not acknowledge the trace switch")

    def stop(self, windows: Optional[dict] = None) -> Optional[dict]:
        """Drain and stop; a traced server answers with its aggregates."""
        try:
            self.proc.stdin.write(json.dumps({"windows": windows or {}})
                                  + "\n")
            self.proc.stdin.close()
            result = None
            if windows is not None:
                result = json.loads(self._readline(120.0))
            code = self.proc.wait(timeout=60)
            if code != 0:
                raise RuntimeError(f"server exited with code {code}")
            return result
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None and not stream.closed:
                stream.close()


def setup_once(spec: ServeWorkload, seed: int, workdir: str,
               trace: bool) -> Tuple[float, object, ServerProcess]:
    started = time.perf_counter()
    artifact = train_artifact(spec, seed)
    path = save_artifact(artifact, os.path.join(workdir, "artifact"))
    server = ServerProcess(str(path), spec.model, trace)
    return time.perf_counter() - started, artifact, server


# --------------------------------------------------------------------------- #
# load phases
# --------------------------------------------------------------------------- #
class InputStream:
    """Pool indices for successive requests, drawn from the run's seed."""

    def __init__(self, spec: ServeWorkload, rng: np.random.Generator) -> None:
        self.spec = spec
        self.rng = rng
        self.cursor = 0

    def take(self, count: int) -> np.ndarray:
        if self.spec.zipf is None:
            indices = cyclic_indices(self.spec.pool_size, count, self.cursor)
            self.cursor += count
            return indices
        return zipf_indices(self.spec.pool_size, count, self.spec.zipf,
                            self.rng)

    def unsend(self, count: int) -> None:
        """Return the last ``count`` taken but unsent indices to the stream,
        so round-robin order has no gaps."""
        if self.spec.zipf is None:
            self.cursor -= count


def drive(gen: LoadGenerator, spec: ServeWorkload, stream: InputStream,
          rng: np.random.Generator, round_s: float,
          rounds: int = 1) -> Dict[str, List[Phase]]:
    """``rounds`` rounds of low, high and saturation phases, each round
    ``round_s`` seconds long."""
    results: Dict[str, List[Phase]] = {name: [] for name in PHASE_SHARE}
    for _ in range(rounds):
        for name in PHASE_SHARE:
            duration = PHASE_SHARE[name] * round_s
            if name == "sat":
                cap = int(duration * spec.high_rps * 4) + 4 * spec.window
                phase = gen.windowed(name, spec.window, duration,
                                     stream.take(cap), DRAIN_S)
                stream.unsend(cap - phase.count)
            else:
                rate = spec.low_rps if name == "low" else spec.high_rps
                duration = max(duration, MIN_EXPECTED / rate)
                offsets = poisson_offsets(rate, duration, rng)
                phase = gen.open_loop(name, offsets,
                                      stream.take(len(offsets)), DRAIN_S)
            results[name].append(phase)
    return results


def outcomes(rounds: List[Phase], oracle: np.ndarray, limit_ms: float,
             tail_pct: Optional[float]) -> dict:
    """Outcome counts, latency from due time and generator lateness of one
    phase over its rounds.

    Every request counts toward the outcomes.  A round whose sends ran
    late by more than the latency limit (p99) measured the generator, not
    the server: it is invalid and its timings are left out.  Latency
    statistics are medians over the valid rounds; the phase is invalid
    when no round is valid.
    """
    latencies, wire, server_ms, ok_rates = [], [], [], []
    ok_valid = seconds_valid = 0.0
    lateness_p99, backlog_growth = [], []
    counts = dict.fromkeys(("sent", "ok", "shed", "deadline_exceeded",
                            "error", "lost", "wrong_label", "sent_valid",
                            "within_limit_valid"), 0)
    for phase in rounds:
        status = np.asarray([s if s is not None else "lost"
                             for s in phase.status], dtype=object)
        ok = status == "ok"
        right = ok & (phase.label == oracle[phase.pool_index])
        latency_ms = 1000.0 * (phase.recv - phase.due)
        counts["sent"] += len(status)
        counts["ok"] += int(right.sum())
        for outcome in ("shed", "deadline_exceeded", "error", "lost"):
            counts[outcome] += int((status == outcome).sum())
        counts["wrong_label"] += int((ok & ~right).sum())
        if not len(status):
            continue
        late_p99 = float(np.percentile(1000.0 * (phase.sent - phase.due), 99))
        lateness_p99.append(late_p99)
        quarter = max(1, len(status) // 4)
        backlog_growth.append(float(phase.backlog[-quarter:].mean()
                                    - phase.backlog[:quarter].mean()))
        if late_p99 > limit_ms:
            continue
        counts["sent_valid"] += len(status)
        counts["within_limit_valid"] += int(
            (right & (latency_ms <= limit_ms)).sum())
        # Until the last response: a window still in flight at the end
        # of sending is part of the phase's work.
        seconds = phase.drained - phase.started
        ok_rates.append(int(right.sum()) / seconds)
        ok_valid += int(right.sum())
        seconds_valid += seconds
        latencies.append(latency_ms[right])
        # Client latency from the actual send, minus the server's own
        # account of the request: network, framing and client threads.
        wire.append((1000.0 * (phase.recv - phase.sent)
                     - phase.server_ms)[right])
        server_ms.append(phase.server_ms[right])
    summary = dict(counts)
    summary.update({
        "failed": counts["sent"] - counts["ok"],
        "rounds": len(rounds),
        "valid_rounds": len(latencies),
        "valid": bool(latencies),
        "lateness_p99_ms_by_round": lateness_p99,
        "backlog_growth_by_round": backlog_growth,
    })
    if latencies:
        summary.update({
            # Pooled over rounds: per-round rates of a saturated server are
            # multi-modal (one process lands fast, the next slow), so their
            # median jumps between modes where the pooled rate does not.
            "ok_per_s": ok_valid / seconds_valid,
            "ok_per_s_by_round": ok_rates,
            "wire_overhead_p50_ms": _median(np.concatenate(wire)),
            "server_ms_mean": _mean(np.concatenate(server_ms)),
        })
        if tail_pct is not None:
            summary["latency"] = summarize(latencies, tail_pct)
    return summary


# --------------------------------------------------------------------------- #
# the workload
# --------------------------------------------------------------------------- #
def _median(values: np.ndarray) -> float:
    return float(np.median(values)) if values.size else 0.0


def _mean(values: np.ndarray) -> float:
    return float(np.mean(values)) if values.size else 0.0


def run(name: str, seed: int, seconds: float, trace: bool,
        rounds: Optional[int] = None) -> dict:
    """One run of a serve workload; ``rounds`` overrides ``spec.rounds``."""
    spec = WORKLOADS[name]
    rounds = rounds or spec.rounds
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    servers: List[ServerProcess] = []
    try:
        with tempfile.TemporaryDirectory(dir=scratch) as workdir:
            try:
                measure = _traced if trace else _timed
                return measure(spec, seed, seconds, rounds, workdir, servers)
            finally:
                for server in servers:
                    server.kill()
    finally:
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it


def _warm_up(gen: LoadGenerator, spec: ServeWorkload, stream: InputStream,
             rng: np.random.Generator) -> None:
    """Unmeasured load at the high rate: fills the prediction cache and
    first-touch buffers before any phase is timed."""
    offsets = poisson_offsets(spec.high_rps, WARMUP_S, rng)
    gen.open_loop("warmup", offsets, stream.take(len(offsets)), DRAIN_S)


def _pool_and_oracle(spec: ServeWorkload, seed: int, artifact):
    """The run's input pool and the in-process engine's label for each."""
    _, pool_set = _datasets(spec, seed + 1, test_samples=spec.pool_size)
    pool = np.ascontiguousarray(pool_set.images, dtype=np.float32)
    engine = build_engine(artifact)
    try:
        oracle = np.concatenate([
            engine.predict(pool[start:start + ORACLE_BATCH])
            for start in range(0, len(pool), ORACLE_BATCH)
        ])
    finally:
        engine.close()
    return pool, oracle


def _timed(spec, seed, seconds, rounds, workdir, servers) -> dict:
    """Each round sets up afresh (timed) and loads its own server, so
    set-up is measured ``rounds`` times and a server process that lands in
    a slow state moves one round, not the run."""
    rng = np.random.default_rng(seed)
    stream = InputStream(spec, rng)
    setup_runs, rss_mb, fingerprints = [], [], set()
    phases: Dict[str, List[Phase]] = {name: [] for name in PHASE_SHARE}
    pool = oracle = None
    for _ in range(rounds):
        elapsed, artifact, server = setup_once(spec, seed, workdir,
                                               trace=False)
        servers.append(server)
        setup_runs.append(elapsed)
        fingerprints.add(artifact_fingerprint(artifact))
        if oracle is None:
            pool, oracle = _pool_and_oracle(spec, seed, artifact)
        with LoadGenerator("127.0.0.1", server.port, pool) as gen:
            _warm_up(gen, spec, stream, rng)
            for name, done in drive(gen, spec, stream, rng,
                                    seconds / rounds).items():
                phases[name].extend(done)
        rss_mb.append(server.peak_rss_mb())
        server.stop()
        servers.remove(server)
    result = _report(spec, phases, oracle)
    result["record"].update({
        "setup_s": float(np.median(setup_runs)),
        "setup_runs_s": setup_runs,
        "server_rss_mb": float(np.median(rss_mb)),
        "server_rss_mb_by_round": rss_mb,
    })
    # Correctness gate: the seeded set-up exports the same artifact.
    result["gates"]["artifact_reproducible"] = len(fingerprints) == 1
    result["correct"] = result["correct"] and len(fingerprints) == 1
    return result


def _traced(spec, seed, seconds, rounds, workdir, servers) -> dict:
    """One ``--trace 1`` server; each round runs a ``low`` phase with
    tracing off, then the three phases with tracing on.  The untraced
    phases are the baseline the tracing overhead is measured against, in
    the same process and interleaved with the traced ones."""
    rng = np.random.default_rng(seed)
    stream = InputStream(spec, rng)
    _, artifact, server = setup_once(spec, seed, workdir, trace=True)
    servers.append(server)
    pool, oracle = _pool_and_oracle(spec, seed, artifact)
    # A traced round plus its untraced low phase fit seconds / rounds.
    round_s = seconds / rounds / (1.0 + PHASE_SHARE["low"])
    plain: List[Phase] = []
    phases: Dict[str, List[Phase]] = {name: [] for name in PHASE_SHARE}
    with LoadGenerator("127.0.0.1", server.port, pool) as gen:
        _warm_up(gen, spec, stream, rng)
        for _ in range(rounds):
            offsets = poisson_offsets(
                spec.low_rps, max(PHASE_SHARE["low"] * round_s,
                                  MIN_EXPECTED / spec.low_rps), rng)
            plain.append(gen.open_loop("low", offsets,
                                       stream.take(len(offsets)), DRAIN_S))
            server.set_tracing(True)
            for name, done in drive(gen, spec, stream, rng, round_s).items():
                phases[name].extend(done)
            server.set_tracing(False)
    windows = {n: [[p.started, p.drained] for p in done]
               for n, done in phases.items()}
    view = server.stop(windows)
    servers.remove(server)

    result = _report(spec, phases, oracle)
    plain_low = outcomes(plain, oracle, spec.limit_ms, tail_pcts(spec)["low"])
    result["gates"]["wrong_labels"] += plain_low["wrong_label"]
    if plain_low["wrong_label"]:
        result["correct"] = False
    if not plain_low["valid"]:
        result["invalid_phases"].append("untraced low")
    if not result["invalid_phases"]:
        result["per_layer"] = _serve_layers(view, result["phases"],
                                            plain_low)
    return result


def _report(spec: ServeWorkload, phases: Dict[str, List[Phase]],
            oracle: np.ndarray) -> dict:
    """Outcomes and end-to-end record of the measured phases."""
    tails = tail_pcts(spec)
    summary = {n: outcomes(p, oracle, spec.limit_ms, tails.get(n))
               for n, p in phases.items()}
    invalid = [n for n, s in summary.items() if not s["valid"]]
    attempted = sum(s["sent"] for s in summary.values())
    failed = sum(s["failed"] for s in summary.values())
    wrong = sum(s["wrong_label"] for s in summary.values())

    def reported(phase: str, key: str, field: Optional[str] = None):
        # Phases the generator ran late in throughout measured the client:
        # their numbers are withheld.
        if phase in invalid:
            return None
        value = summary[phase][key]
        return value if field is None else value[field]

    high = summary["high"]
    record = {
        "lat_p50_ms.low": reported("low", "latency", "p50"),
        "lat_tail_ms.low": reported("low", "latency", "tail"),
        "lat_p50_ms.high": reported("high", "latency", "p50"),
        "lat_tail_ms.high": reported("high", "latency", "tail"),
        "slo_attain.high": (None if "high" in invalid else
                            high["within_limit_valid"] / high["sent_valid"]),
        "peak_rps": reported("sat", "ok_per_s"),
        "error_rate": failed / max(1, attempted),
    }
    return {
        "record": record,
        "per_layer": {},
        "phases": summary,
        "invalid_phases": invalid,
        "gates": {"wire_labels_match_engine": wrong == 0,
                  "wrong_labels": wrong},
        "attempted": attempted,
        "failed": failed,
        "correct": wrong == 0,
    }


def _serve_layers(view: dict, summary: dict, plain_low: dict) -> dict:
    """Per-layer metrics: latency decomposition from the ``low`` phase,
    batching and cache from the ``high`` phase."""
    low, high = view["low"], view["high"]
    layers: Dict[str, float] = {}
    layers["wire.overhead_ms.p50"] = summary["low"]["wire_overhead_p50_ms"]
    for label, value in low["layers_ms.mean"].items():
        layers[label] = value
    layers["serve.batcher.queue_wait_ms.p50"] = low["queue_wait_ms.p50"]
    layers["serve.batcher.batch_size.mean"] = high["batch_size.mean"]
    layers["serve.batcher.batches"] = float(high["batches"])
    layers["serve.cache.hit_ratio"] = high["cache_hit_ratio"]
    layers["serve.cache.lookups"] = float(high["cache_lookups"])
    layers["serve.engine.predict_ms"] = low["engine_predict_ms.mean"]
    layers["serve.engine.rows"] = float(high["engine_rows"])
    layers["serve.engine.self_ms"] = low["engine_self_ms.mean"]
    mean_server_ms = summary["low"]["server_ms_mean"]
    layers["serve.server_ms.mean"] = mean_server_ms
    # The frontend span also covers admission and the response write,
    # which the header's server_ms leaves out; the gap is that remainder.
    layers["serve.layers_minus_server_ms"] = (
        low["request_span_ms.mean"] - mean_server_ms)
    steps = low["step_ms_per_call"]
    for kind in STEP_KINDS:
        layers[f"runtime.step.{kind}_ms"] = steps[kind]
    total = sum(steps.values())
    layers["runtime.step.opaque_share"] = (
        steps["module"] / total if total else 0.0)
    layers["runtime.plan.compiles"] = float(view["plan_compiles_in_phases"])
    traced_p50 = summary["low"]["latency"]["p50"]
    plain_p50 = plain_low["latency"]["p50"]
    layers["obs.trace_overhead_pct"] = 100.0 * (traced_p50 - plain_p50) / plain_p50
    return layers
