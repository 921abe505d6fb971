"""Run one benchmark workload and print its metrics; the last line is JSON.

    python3 perfbench/run.py --workload train-mlp --seed 1 --seconds 45 --trace 0

Workloads (the public ``repro`` API, library defaults: ``fast`` backend,
fused plans, ``FrontendConfig()``):

* ``train-mlp`` -- FF-INT8 training of the Table V ``mlp`` (784-500-500),
  batch 32, then held-out evaluation.  No serving layer runs.
* ``serve-mlp-wire`` -- ``mlp-mini`` behind ``ServeFrontend`` in a server
  subprocess, open-loop Poisson load at fixed low/high rates, then a
  saturation window.  Frontend, batcher, cache and wire dominate.
* ``serve-resnet-wire`` -- the same with ``resnet18-mini``; the conv
  engine path dominates and every input misses the cache.  It is not in
  ``BENCHMARK.json``: its latencies moved by more than the 25% any gated
  metric may spread, with the host and with the server process's BLAS
  threading, so it serves the per-layer breakdown of the conv path only.

Each run is cut into rounds (fresh server or fresh model per round) and
reports medians over rounds, so one noisy stretch of a shared host moves
one round rather than the run.

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` is the traced run: it wraps the layers' public functions
from the benchmark's own files and reports per-layer metrics, each
workload reporting the layers it runs (the others read 0).

End-to-end metrics share names across workloads so every workload
reports each one:

===================  =========================  ===========================
metric               train-mlp                  serve-*-wire
===================  =========================  ===========================
setup_s              data + model + trainer     artifact run + server ready
throughput_per_s     training samples/s         peak_rps (saturation)
peak_mem_mb          tracemalloc peak of fit    server VmHWM
===================  =========================  ===========================

Every run also prints its full record above the result line: all of the
above under their own names, the latencies (``step_p50_ms``,
``lat_p50_ms.low``/``.high``, the tails -- the highest percentile of a
round with ten samples beyond it -- and ``eval_batch_p50_ms``, each a
median over rounds), ``slo_attain.high``, ``error_rate``,
``final_loss``, per-phase outcome counts, ... and ``meta``.  Latencies
are not gated: on a shared 2-vCPU host their spread over ten runs
reached 0.2-0.45 of the median in noisy hours (wire p50 at ``low``:
0.04-0.06 when quiet, 0.30 when not), beyond any allowed bound.

Per-layer metrics are self times (a span's time minus its children's):
per training step on ``train-mlp``, per wire request in the ``low``
phase on the serve workloads (``serve.engine.*_ms`` and
``runtime.step.*`` per engine call).  Batching, cache and engine-row
counts come from the ``high`` phase.  ``train.step.unattributed_ms`` and
``serve.layers_minus_server_ms`` are the gaps between the layers' sum
and the step time or the response's ``server_ms``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import socket
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("train-mlp", "serve-mlp-wire", "serve-resnet-wire")

#: (name, unit, record key on train-mlp, record key on the serve workloads)
END_TO_END = (
    ("setup_s", "s", "setup_s", "setup_s"),
    ("throughput_per_s", "1/s", "train_samples_per_s", "peak_rps"),
    ("peak_mem_mb", "MB", "peak_mem_mb", "server_rss_mb"),
)

#: ``repro.runtime.plan.STEP_KINDS``, spelled out because ``repro`` is
#: imported only once this checkout's ``src`` is on the path (a test keeps
#: the two equal).
_KINDS = ("gemm", "conv", "depthwise", "norm", "activation", "pool",
          "dropout", "identity", "reshape", "module", "fused")

#: Every per-layer metric and its unit, in report order.
PER_LAYER = (
    ("data.loader.wait_ms", "ms"),
    ("data.overlay_ms", "ms"),
    ("runtime.executor.forward_ms", "ms"),
    ("runtime.dispatch.int8_gemm_ms", "ms"),
    ("runtime.dispatch.int8_gemm_calls", "count"),
    ("runtime.int8_macs", "count"),
    ("quant.suq.quantize_ms", "ms"),
    ("quant.quantized_elements", "count"),
    ("core.lookahead.losses_ms", "ms"),
    ("core.lookahead.backward_ms", "ms"),
    ("training.optim.step_ms", "ms"),
    ("train.step_ms.mean", "ms"),
    ("train.step.unattributed_ms", "ms"),
    ("core.classifier.eval_ms", "ms"),
    ("wire.overhead_ms.p50", "ms"),
    ("serve.frontend.self_ms", "ms"),
    ("serve.registry.route_ms", "ms"),
    ("serve.supervisor.submit_ms", "ms"),
    ("serve.batcher.self_ms", "ms"),
    ("serve.batcher.queue_wait_ms", "ms"),
    ("serve.batcher.queue_wait_ms.p50", "ms"),
    ("serve.batcher.batch_size.mean", "count"),
    ("serve.batcher.batches", "count"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.cache.lookups", "count"),
    ("serve.engine.predict_ms", "ms"),
    ("serve.engine.rows", "count"),
    ("serve.engine.self_ms", "ms"),
    ("serve.server_ms.mean", "ms"),
    ("serve.layers_minus_server_ms", "ms"),
) + tuple((f"runtime.step.{kind}_ms", "ms") for kind in _KINDS) + (
    ("runtime.step.opaque_share", "ratio"),
    ("runtime.plan.compiles", "count"),
    ("obs.trace_overhead_pct", "%"),
)


def _meta(args, workload_meta: dict) -> dict:
    from repro import FrontendConfig, __version__
    from repro.utils.sysinfo import machine_meta

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # checkouts without git metadata
    return {
        "host": socket.gethostname(),
        "platform": platform.platform(),
        **machine_meta(),
        "thread_env": {name: os.environ.get(name) for name in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "REPRO_BACKEND")},
        "frontend_config": FrontendConfig().as_dict(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "commit": commit,
        "repro_version": __version__,
        "workload": workload_meta,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="set up once and run one round (for the "
                             "benchmark's own tests; with a small "
                             "--seconds a workload runs in seconds)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # Import this directory's modules as ``perfbench.*`` only, never as
    # top-level names that could shadow others.
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != here]
    for path in (ROOT / "src", ROOT):
        sys.path.insert(0, str(path))
    try:
        import repro  # the system under test
    except ImportError as error:
        print(f"error: cannot import the repro package from {ROOT / 'src'}: "
              f"{error}", file=sys.stderr)
        return 2
    if (ROOT / "src") not in Path(repro.__file__).resolve().parents:
        print(f"error: repro was imported from {repro.__file__}, not from "
              f"this checkout's {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload == "train-mlp":
        from perfbench import train_mlp

        result = train_mlp.run(
            args.seed, args.seconds, bool(args.trace),
            **({"setup_repeats": 1, "rounds": 1} if args.smoke else {}))
        workload_meta = {
            "model": train_mlp.MODEL, "batch": train_mlp.BATCH,
            "check_fit": {"batches": train_mlp.CHECK_BATCHES,
                          "epochs": train_mlp.CHECK_EPOCHS},
            "train_samples": train_mlp.TRAIN_SAMPLES,
            "test_samples": train_mlp.TEST_SAMPLES,
            "rounds": train_mlp.ROUNDS,
            "step_tail_pct": train_mlp.STEP_TAIL_PCT,
            "eval_tail_pct": train_mlp.EVAL_TAIL_PCT,
        }
        column = 2
    else:
        from dataclasses import asdict

        from perfbench import serve_wire

        result = serve_wire.run(
            args.workload, args.seed, args.seconds, bool(args.trace),
            rounds=1 if args.smoke else None)
        spec = serve_wire.WORKLOADS[args.workload]
        workload_meta = {**asdict(spec),
                         "tail_pct": serve_wire.tail_pcts(spec),
                         "warmup_s": serve_wire.WARMUP_S,
                         "phase_share": serve_wire.PHASE_SHARE}
        column = 3

    report = {key: value for key, value in result.items()
              if key not in ("attempted", "failed", "correct")}
    report["meta"] = _meta(args, workload_meta)
    print(json.dumps(report, indent=1, default=float))
    if result.get("invalid_phases"):
        print(f"error: the load generator ran late in phase(s) "
              f"{result['invalid_phases']}; their numbers measure the "
              f"client, not the server", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {name: {"value": float(result["per_layer"].get(name, 0.0)),
                          "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {row[0]: {"value": float(result["record"][row[column]]),
                            "unit": row[1]}
                   for row in END_TO_END}
    for name, entry in metrics.items():
        print(f"{name:<36} {entry['value']:>14.6g} {entry['unit']}")
    bad = [name for name, entry in metrics.items()
           if not math.isfinite(entry["value"])]
    if bad:
        print(f"error: metrics without a value: {bad}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
