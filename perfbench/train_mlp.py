"""``train-mlp``: FF-INT8 training of the Table V MLP, then held-out evaluation.

``FFInt8Trainer`` with its defaults (chained look-ahead, stochastic
rounding, Adam) on the 784-500-500 ``mlp`` over synthetic 28x28 MNIST,
batch 32.  Step boundaries are the instants the trainer's public
``DataLoader`` hands out successive batches; the loader stops handing
them out when the phase's time is up, which ends ``fit`` early.  A timed
run is ``ROUNDS`` rounds of fit + evaluation, each on a fresh model, and
reports medians over rounds.

Only steps after the first epoch are measured: the default look-ahead
schedule has lambda = 0 in epoch 0, where the chained gradient terms are
skipped, and from epoch 1 on every step does the same (full) work.  The
first epoch doubles as warm-up.
"""

from __future__ import annotations

import time
import tracemalloc
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import FFInt8Config, FFInt8Trainer, build_model, synthetic_mnist
from repro.core import ff_trainer
from repro.core.classifier import FFGoodnessClassifier
from repro.data import DataLoader
from repro.data.overlay import LabelOverlay
from repro.quant import int8_ops
from repro.runtime import counting, dispatch
from repro.runtime.executor import PlanExecutor
from repro.runtime.instrument import register_step_hook, unregister_step_hook
from repro.runtime.plan import STEP_KINDS
from repro.training.optim import Optimizer

from perfbench.spans import (
    CompileCounter,
    SpanRecorder,
    StepKindTimer,
    self_time_by_name,
)
from perfbench.stats import summarize, tail_percentile

MODEL = "mlp"
IMAGE_SIZE = 28
BATCH = 32
TRAIN_SAMPLES = 1024          # 32 steps per epoch
TEST_SAMPLES = 512
EVAL_BATCH = 128
CHECK_BATCHES = 2             # x 2 epochs: steps compared bit for bit
CHECK_EPOCHS = 2              # (epoch 1 runs the chained look-ahead terms)
MEMORY_BATCHES = 2
SETUP_REPEATS = 7
EPOCH_CAP = 1000              # fit ends when the loader runs dry, long before
FIT_SHARE = 0.75              # of --seconds; the rest is evaluation
ROUNDS = 3
#: Planned measured steps of one round at the seed commit (~60 ms per step
#: over the ~9 s after epoch 0 of the 11 s a round of a 45 s run fits
#: for), which fixes the tail percentile by the ten-beyond rule.
STEP_TAIL_PCT = tail_percentile(140)
EVAL_TAIL_PCT = 50.0  # a round holds ~10 eval batches, too few for a tail

#: Per-layer spans of the traced fit: (owner, attribute, name).  Functions
#: are wrapped where their callers look them up (``int8_ops`` imports
#: ``quantize`` by name, the trainer the look-ahead functions).
TRAIN_SPANS = (
    (LabelOverlay, "positive", "data.overlay_ms"),
    (LabelOverlay, "negative", "data.overlay_ms"),
    (PlanExecutor, "unit_outputs", "runtime.executor.forward_ms"),
    (dispatch, "int8_gemm", "runtime.dispatch.int8_gemm_ms"),
    (int8_ops, "quantize", "quant.suq.quantize_ms"),
    (ff_trainer, "unit_losses_and_grads", "core.lookahead.losses_ms"),
    (ff_trainer, "accumulate_lookahead_gradients",
     "core.lookahead.backward_ms"),
    (Optimizer, "step", "training.optim.step_ms"),
    (FFGoodnessClassifier, "predict", "core.classifier.eval_ms"),
)


class StepClock:
    """Stamps every batch a ``DataLoader`` yields; yields none after the
    deadline, so the trainer's epochs run dry and ``fit`` returns."""

    def __init__(self) -> None:
        self.stamps: List[float] = []
        self.epoch_sizes: List[int] = []
        self.deadline = float("inf")
        self._original = None

    def install(self) -> None:
        original = self._original = DataLoader.__iter__
        clock = self

        def timed_iter(loader):
            if time.perf_counter() >= clock.deadline:
                return
            clock.epoch_sizes.append(0)
            for batch in original(loader):
                clock.stamps.append(time.perf_counter())
                clock.epoch_sizes[-1] += 1
                yield batch
                if time.perf_counter() >= clock.deadline:
                    return

        DataLoader.__iter__ = timed_iter

    def uninstall(self) -> None:
        DataLoader.__iter__ = self._original


def make_config(seed: int, epochs: int = EPOCH_CAP,
                backend: Optional[str] = None) -> FFInt8Config:
    # Per-epoch evaluation is off: the held-out evaluation runs once, after
    # fit, so step times hold training work only.
    return FFInt8Config(epochs=epochs, batch_size=BATCH, seed=seed,
                        evaluate_every=epochs + 1, backend=backend)


def setup_once(seed: int):
    started = time.perf_counter()
    train, test = synthetic_mnist(num_train=TRAIN_SAMPLES,
                                  num_test=TEST_SAMPLES, seed=seed,
                                  image_size=IMAGE_SIZE)
    bundle = build_model(MODEL, input_shape=(1, IMAGE_SIZE, IMAGE_SIZE))
    trainer = FFInt8Trainer(make_config(seed))
    return time.perf_counter() - started, (train, test, bundle, trainer)


def step_losses(seed: int, train, backend: Optional[str],
                count: bool = False) -> Tuple[List[float], Dict[str, int]]:
    """Losses of every step of a short fit (``CHECK_EPOCHS`` epochs of
    ``CHECK_BATCHES`` batches), and its op counts if asked."""
    subset = train.subset(np.arange(CHECK_BATCHES * BATCH))
    trainer = FFInt8Trainer(make_config(seed, epochs=CHECK_EPOCHS,
                                        backend=backend))
    losses: List[float] = []
    step = trainer._train_step_all_layers

    def recording_step(*args, **kwargs):
        loss = step(*args, **kwargs)
        losses.append(loss)
        return loss

    trainer._train_step_all_layers = recording_step
    bundle = build_model(MODEL, input_shape=(1, IMAGE_SIZE, IMAGE_SIZE))
    counts: Dict[str, int] = {}
    if count:
        with counting() as ops:
            trainer.fit(bundle, subset)
        # OpCountingHook charges one FP32 compare per quantized element.
        counts = {"int8_macs": ops.int8_mul,
                  "quantized_elements": ops.fp32_cmp}
    else:
        trainer.fit(bundle, subset)
    return losses, counts


def peak_fit_memory_mb(seed: int, train) -> float:
    """tracemalloc peak over a short two-epoch fit of a fresh model (an
    untimed pass; epoch 1 holds the look-ahead buffers)."""
    subset = train.subset(np.arange(MEMORY_BATCHES * BATCH))
    bundle = build_model(MODEL, input_shape=(1, IMAGE_SIZE, IMAGE_SIZE))
    trainer = FFInt8Trainer(make_config(seed, epochs=2))
    tracemalloc.start()
    try:
        trainer.fit(bundle, subset)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2 ** 20


def timed_fit(trainer, bundle, train, seconds: float):
    clock = StepClock()
    clock.install()
    started = time.perf_counter()
    try:
        clock.deadline = started + seconds
        history = trainer.fit(bundle, train)
    finally:
        clock.uninstall()
    deltas = np.diff(np.asarray(clock.stamps)) * 1000.0
    # Steps of epoch 0 are warm-up; a fit too short to leave it (a smoke
    # run) measures them rather than nothing.
    first = clock.epoch_sizes[0] if len(clock.epoch_sizes) > 1 else 0
    step_ms = deltas[first:]
    complete = [i for i, size in enumerate(clock.epoch_sizes)
                if size * BATCH >= len(train)]
    last = complete[-1] if complete else max(len(clock.epoch_sizes) - 1, 0)
    return {
        "history": history,
        "started": started,
        "stamps": clock.stamps,
        "first_measured": first,
        "step_ms": step_ms,
        "final_loss": float(history.records[last].train_loss),
        "final_loss_epoch": last + 1,
        "epochs_complete": len(complete),
    }


def timed_eval(classifier, test, seconds: float):
    """Held-out evaluation in ``EVAL_BATCH`` chunks, whole passes until the
    time is up; returns chunk times, accuracy and pass-to-pass agreement."""
    chunks = [(start, min(start + EVAL_BATCH, len(test)))
              for start in range(0, len(test), EVAL_BATCH)]
    chunk_ms: List[float] = []
    labels_by_pass: List[List[np.ndarray]] = [[], []]
    correct = 0
    # One untimed pass first: the first calls at evaluation shapes pay
    # allocator and cache warm-up that later passes do not.
    for start, stop in chunks:
        classifier.predict(test.images[start:stop])
    deadline = time.perf_counter() + seconds
    passes = 0
    started = time.perf_counter()
    while passes == 0 or time.perf_counter() < deadline:
        for start, stop in chunks:
            t0 = time.perf_counter()
            labels = classifier.predict(test.images[start:stop])
            chunk_ms.append(1000.0 * (time.perf_counter() - t0))
            if passes < 2:
                labels_by_pass[passes].append(labels)
            if passes == 0:
                correct += int(np.sum(labels == test.labels[start:stop]))
        passes += 1
    elapsed = time.perf_counter() - started
    return {
        "chunk_ms": chunk_ms,
        "samples_per_s": passes * len(test) / elapsed,
        "accuracy": correct / len(test),
        "repeat_agreement": (
            float(np.mean(np.concatenate(labels_by_pass[0])
                          == np.concatenate(labels_by_pass[1])))
            if labels_by_pass[1] else float("nan")),
        "window": (started, started + elapsed),
    }


def run(seed: int, seconds: float, trace: bool,
        setup_repeats: int = SETUP_REPEATS, rounds: int = ROUNDS) -> dict:
    setups = [setup_once(seed) for _ in range(setup_repeats)]
    setup_s = float(np.median([s for s, _ in setups]))
    train, test, bundle, trainer = setups[-1][1]

    # Correctness gate 1: the first steps' losses equal the reference
    # backend's (the repository's oracle) bit for bit.
    fast_losses, fast_counts = step_losses(seed, train, None, count=trace)
    ref_losses, ref_counts = step_losses(seed, train, "reference", count=trace)
    gates = {
        "step_losses_match_reference": (
            len(fast_losses) == CHECK_BATCHES * CHECK_EPOCHS
            and fast_losses == ref_losses),
        "check_steps": len(fast_losses),
    }
    if trace:
        # Correctness gate 3: op counts repeat exactly.
        gates["op_counts_repeat"] = fast_counts == ref_counts

    record: Dict[str, object] = {"setup_s": setup_s,
                                 "setup_runs_s": [s for s, _ in setups]}
    per_layer: Dict[str, float] = {}
    fit_s = FIT_SHARE * seconds
    eval_s = seconds - fit_s
    if trace:
        # The untraced half gives the baseline the traced half's overhead
        # is measured against.
        plain = timed_fit(trainer, bundle, train, fit_s / 2)
        trainer = FFInt8Trainer(make_config(seed))
        bundle = build_model(MODEL, input_shape=(1, IMAGE_SIZE, IMAGE_SIZE))
        recorder, steps, compiles = _install_train_trace()
        try:
            fit = timed_fit(trainer, bundle, train, fit_s / 2)
            evaluation = timed_eval(fit["history"].metadata["classifier"],
                                    test, eval_s)
        finally:
            unregister_step_hook(steps)
            recorder.uninstall()
        per_layer = _train_layers(recorder, steps, compiles, fit, evaluation,
                                  fast_counts)
        plain_p50 = float(np.median(plain["step_ms"]))
        traced_p50 = float(np.median(fit["step_ms"]))
        per_layer["obs.trace_overhead_pct"] = (
            100.0 * (traced_p50 - plain_p50) / plain_p50)
        done = [(fit, evaluation)]
    else:
        # Rounds of fit + evaluation, each on a fresh model: statistics are
        # medians over rounds, so a noisy stretch of a shared host moves
        # one round, not the run.
        done = []
        for _ in range(rounds):
            fit = timed_fit(trainer, bundle, train, fit_s / rounds)
            evaluation = timed_eval(fit["history"].metadata["classifier"],
                                    test, eval_s / rounds)
            done.append((fit, evaluation))
            trainer = FFInt8Trainer(make_config(seed))
            bundle = build_model(MODEL,
                                 input_shape=(1, IMAGE_SIZE, IMAGE_SIZE))

    step = summarize([f["step_ms"] for f, _ in done], STEP_TAIL_PCT)
    chunks = summarize([e["chunk_ms"] for _, e in done], EVAL_TAIL_PCT)
    first_fit, first_eval = done[0]
    record.update({
        "train_samples_per_s": float(np.median([
            BATCH * 1000.0 / float(np.mean(f["step_ms"])) for f, _ in done])),
        "step_p50_ms": step["p50"],
        "step_tail_ms": step["tail"],
        "step_tail_pct": STEP_TAIL_PCT,
        "step_p50_ms_by_round": step["p50_by_part"],
        "steps": step["n"],
        "eval_samples_per_s": float(np.median([
            e["samples_per_s"] for _, e in done])),
        "eval_batch_p50_ms": chunks["p50"],
        "eval_batch_p50_ms_by_round": chunks["p50_by_part"],
        "eval_accuracy": first_eval["accuracy"],
        # Stochastic rounding stays on in evaluation, so two passes over the
        # same held-out inputs need not agree; this is their agreement.
        "eval_repeat_agreement": first_eval["repeat_agreement"],
        "final_loss": first_fit["final_loss"],
        "final_loss_epoch": first_fit["final_loss_epoch"],
    })
    if not trace:
        record["peak_mem_mb"] = peak_fit_memory_mb(seed, train)
    attempted = step["n"] + chunks["n"]
    return {
        "record": record,
        "per_layer": per_layer,
        "gates": gates,
        "attempted": attempted,
        "failed": 0,
        "correct": all(v for k, v in gates.items() if isinstance(v, bool)),
    }


def _install_train_trace():
    recorder = SpanRecorder()
    recorder.wrap_iter(DataLoader, "__iter__", "data.loader.wait_ms")
    for owner, attr, name in TRAIN_SPANS:
        recorder.wrap(owner, attr, name)
    compiles = CompileCounter()
    compiles.install(recorder)
    steps = StepKindTimer()
    register_step_hook(steps)
    return recorder, steps, compiles


def _train_layers(recorder, steps, compiles, fit, evaluation,
                  counts: Dict[str, int]) -> Dict[str, float]:
    stamps, first = fit["stamps"], fit["first_measured"]
    begin, end = stamps[first], stamps[-1]
    step_count = max(1, len(stamps) - 1 - first)
    table = self_time_by_name(recorder.between(begin, end))
    layers = {}
    attributed = 0.0
    for name in ("data.loader.wait_ms", "data.overlay_ms",
                 "runtime.executor.forward_ms",
                 "runtime.dispatch.int8_gemm_ms", "quant.suq.quantize_ms",
                 "core.lookahead.losses_ms", "core.lookahead.backward_ms",
                 "training.optim.step_ms"):
        self_ms = 1000.0 * table.get(name, {}).get("self_s", 0.0) / step_count
        layers[name] = self_ms
        attributed += self_ms
    mean_step_ms = 1000.0 * (end - begin) / step_count
    layers["train.step_ms.mean"] = mean_step_ms
    layers["train.step.unattributed_ms"] = mean_step_ms - attributed
    gemm = table.get("runtime.dispatch.int8_gemm_ms")
    layers["runtime.dispatch.int8_gemm_calls"] = (
        gemm["calls"] / step_count if gemm else 0.0)
    layers["runtime.int8_macs"] = float(counts.get("int8_macs", 0))
    layers["quant.quantized_elements"] = float(
        counts.get("quantized_elements", 0))
    by_kind = steps.by_kind([(begin, end)])
    total_step_ms = sum(by_kind.values())
    for kind in STEP_KINDS:
        layers[f"runtime.step.{kind}_ms"] = by_kind.get(kind, 0.0) / step_count
    layers["runtime.step.opaque_share"] = (
        by_kind.get("module", 0.0) / total_step_ms if total_step_ms else 0.0)
    eval_table = self_time_by_name(recorder.between(*evaluation["window"]))
    eval_entry = eval_table.get("core.classifier.eval_ms")
    layers["core.classifier.eval_ms"] = (
        1000.0 * eval_entry["total_s"] / eval_entry["calls"]
        if eval_entry else 0.0)
    layers["runtime.plan.compiles"] = float(compiles.between(
        [(fit["started"], stamps[-1]), evaluation["window"]]))
    return layers
