"""Experiment K1 — kernel microbenchmark: gemm / depthwise / fused, per backend.

End-to-end serving numbers fold queueing, Python dispatch and model shape
into one figure; this benchmark times the *kernels* in isolation so a
backend win (or regression) is attributable.  Four kernel cases run on every
registered backend, plus the fused-vs-unfused executor comparison on the
serve-shaped GEMM+activation stack:

* ``gemm_large``    — INT8 GEMM at a deliberately wide shape (the case the
  CI bench-smoke job watches: ``parallel`` must not lose to ``fast`` here).
* ``rowwise_serve`` — fused per-row quantize + GEMM at the folded-label
  serving shape (10 labels x 32 requests of a 14x14 MLP).
* ``conv_cols``     — the same fused quantize+GEMM at an im2col'd conv
  shape (positions are rows: a 64-channel 3x3 conv over a batch of
  16x16 feature maps) — the ResNet/MobileNet serving hot path, where the
  parallel backend tiles the column blocks across its worker threads.
* ``depthwise`` / ``depthwise_grad`` — the MobileNet/EfficientNet hot path
  the parallel backend took off the reference integer-einsum kernels.
* ``fused_plan``    — the compiled norm→gemm→activation serving stack,
  fused vs unfused, on the fusion-capable backends.
* ``fused_conv_plan`` — the compiled conv→batchnorm→activation stack
  (eval-mode BatchNorm folded into the conv epilogue), fused vs unfused.

This record doubles as the data source for measured auto-pinning
(:mod:`repro.runtime.autopin` reads the per-shape, per-backend timings and
the ``meta`` sysinfo block to decide whether they speak for this CPU), so
keeping it fresh directly improves ``--pin auto`` routing.

Every backend result is checked for exactness against ``reference`` before
it is timed — a fast wrong kernel must fail loudly, not win benchmarks.
Timing assertions are advisory by default (shared CI runners jitter); set
``REPRO_BENCH_STRICT=1`` to enforce them.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from benchmarks._common import emit, run_once, save_experiment
from repro.analysis import ExperimentResult, format_table
from repro.models import build_mlp
from repro.nn.activations import ReLU, ReLU6
from repro.nn.containers import Sequential
from repro.nn.conv import Conv2d, DepthwiseConv2d
from repro.nn.norm import BatchNorm2d
from repro.quant import QuantConfig, prepare_int8
from repro.runtime import available_backends, get_backend
from repro.runtime.executor import PlanExecutor


REPEATS = 3 if os.environ.get("REPRO_BENCH_FAST") else 7
STRICT = os.environ.get("REPRO_BENCH_STRICT", "").strip().lower() not in (
    "", "0", "false", "no",
)

#: serve-shaped GEMM: 10 folded label overlays x 32 coalesced requests,
#: 14x14 inputs into 64 hidden units.
SERVE_ROWS, SERVE_IN, SERVE_OUT = 320, 196, 64
LARGE_M, LARGE_K, LARGE_N = 512, 784, 256
DW_POSITIONS, DW_CHANNELS, DW_KERNEL = 4096, 32, 9
#: im2col'd conv GEMM: 4 x 16x16 feature-map positions, 64ch 3x3 reduction.
CONV_ROWS, CONV_K, CONV_N = 1024, 576, 64


def _best_ms(func, repeats: int = REPEATS) -> float:
    """Best-of-N wall-clock of ``func`` (ms); best-of filters scheduler noise."""
    func()  # warm-up: scratch buffers, BLAS thread pools, JIT
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - started)
    return 1000.0 * best


def _kernel_cases():
    rng = np.random.default_rng(0)
    lhs = rng.integers(-127, 128, size=(LARGE_M, LARGE_K)).astype(np.int8)
    rhs = rng.integers(-127, 128, size=(LARGE_K, LARGE_N)).astype(np.int8)
    x = rng.normal(size=(SERVE_ROWS, SERVE_IN)).astype(np.float32)
    serve_rhs = rng.integers(-127, 128, size=(SERVE_IN, SERVE_OUT)).astype(
        np.int8
    )
    cols = rng.integers(
        -127, 128, size=(DW_POSITIONS, DW_CHANNELS, DW_KERNEL)
    ).astype(np.int8)
    weight = rng.integers(-127, 128, size=(DW_CHANNELS, DW_KERNEL)).astype(
        np.int8
    )
    grad = rng.integers(-127, 128, size=(DW_POSITIONS, DW_CHANNELS)).astype(
        np.int8
    )
    conv_x = rng.normal(size=(CONV_ROWS, CONV_K)).astype(np.float32)
    conv_rhs = rng.integers(-127, 128, size=(CONV_K, CONV_N)).astype(np.int8)
    return {
        "gemm_large": lambda backend: backend.int8_gemm(lhs, rhs),
        "rowwise_serve": lambda backend: backend.rowwise_quantized_gemm(
            x, serve_rhs, 127
        ),
        "conv_cols": lambda backend: backend.rowwise_quantized_gemm(
            conv_x, conv_rhs, 127
        ),
        "depthwise": lambda backend: backend.int8_depthwise(cols, weight),
        "depthwise_grad": lambda backend: backend.int8_depthwise_grad(
            grad, cols
        ),
    }


def _as_comparable(value):
    if isinstance(value, tuple):
        return tuple(np.asarray(part, dtype=np.float64) for part in value)
    return (np.asarray(value, dtype=np.float64),)


def _serve_stack(seed: int = 0):
    """Eval-mode INT8 MLP units at the serving shape, plus a folded batch."""
    bundle = build_mlp(input_shape=(1, 14, 14), hidden_layers=2,
                       hidden_units=SERVE_OUT, seed=seed)
    units = bundle.ff_units()
    for index, unit in enumerate(units):
        prepare_int8(unit, QuantConfig(rounding="nearest"), seed=seed + index)
        unit.eval()
        unit.set_activation_caching(False)
    inputs = np.random.default_rng(seed).normal(
        size=(SERVE_ROWS, SERVE_IN)
    ).astype(np.float32)
    return units, inputs


def _conv_stack(seed: int = 0):
    """Eval-mode INT8 conv→BN→activation units (the conv serving blocks)."""
    units = [
        Sequential(
            Conv2d(3, 16, 3, stride=1, padding=1, bias=False, rng=seed),
            BatchNorm2d(16), ReLU(),
        ),
        Sequential(
            DepthwiseConv2d(16, 3, stride=1, padding=1, rng=seed + 1),
            BatchNorm2d(16), ReLU6(),
        ),
    ]
    rng = np.random.default_rng(seed + 2)
    for index, unit in enumerate(units):
        prepare_int8(unit, QuantConfig(rounding="nearest"), seed=seed + index)
        for module in unit.modules():
            if isinstance(module, BatchNorm2d):
                # Non-trivial running statistics so the BatchNorm fold is
                # exercised, not a multiply-by-one.
                module.running_mean = rng.normal(
                    size=module.num_features
                ).astype(np.float32)
                module.running_var = (
                    rng.random(module.num_features).astype(np.float32) + 0.5
                )
        unit.eval()
        unit.set_activation_caching(False)
    inputs = rng.normal(size=(8, 3, 16, 16)).astype(np.float32)
    return units, inputs


def _measure():
    backends = available_backends()
    cases = _kernel_cases()
    reference = get_backend("reference")
    timings = {case: {} for case in cases}
    for case, kernel in cases.items():
        expected = _as_comparable(kernel(reference))
        for name in backends:
            backend = get_backend(name)
            for got, want in zip(_as_comparable(kernel(backend)), expected):
                np.testing.assert_array_equal(
                    got, want,
                    err_msg=f"{name} diverged from reference on {case}",
                )
            timings[case][name] = _best_ms(lambda: kernel(backend))

    fused = {}
    fused_conv = {}
    for name in backends:
        if not getattr(get_backend(name), "supports_fusion", False):
            continue
        for stack, table in ((_serve_stack, fused), (_conv_stack, fused_conv)):
            units, inputs = stack()
            fused_exec = PlanExecutor.for_units(units, backend=name)
            unfused_exec = PlanExecutor.for_units(
                units, backend=name, fuse=False
            )
            np.testing.assert_array_equal(
                fused_exec.forward(inputs), unfused_exec.forward(inputs),
                err_msg=f"fused plan diverged on backend {name}",
            )
            fused_ms = _best_ms(lambda: fused_exec.forward(inputs))
            unfused_ms = _best_ms(lambda: unfused_exec.forward(inputs))
            table[name] = {
                "fused_ms": fused_ms,
                "unfused_ms": unfused_ms,
                "speedup": unfused_ms / fused_ms if fused_ms else 0.0,
            }
    return {
        "kernels": timings,
        "fused_plan": fused,
        "fused_conv_plan": fused_conv,
    }


@pytest.mark.benchmark(group="kernel_micro")
def test_kernel_microbenchmark(benchmark):
    measured = run_once(benchmark, _measure)
    timings, fused = measured["kernels"], measured["fused_plan"]
    fused_conv = measured["fused_conv_plan"]
    backends = available_backends()

    rows = [
        [case] + [timings[case].get(name, float("nan")) for name in backends]
        for case in timings
    ]
    emit("")
    emit(format_table(
        ["kernel case"] + [f"{name} (ms)" for name in backends], rows,
        title="kernel microbenchmark (best-of-%d)" % REPEATS,
        float_format="{:.3f}",
    ))
    emit(format_table(
        ["backend", "unfused (ms)", "fused (ms)", "speedup"],
        [
            [name, stats["unfused_ms"], stats["fused_ms"], stats["speedup"]]
            for name, stats in fused.items()
        ],
        title="fused vs unfused serve-shaped plan (norm→gemm→activation x2)",
        float_format="{:.3f}",
    ))
    emit(format_table(
        ["backend", "unfused (ms)", "fused (ms)", "speedup"],
        [
            [name, stats["unfused_ms"], stats["fused_ms"], stats["speedup"]]
            for name, stats in fused_conv.items()
        ],
        title="fused vs unfused conv plan (conv→BN→act + depthwise→BN→act)",
        float_format="{:.3f}",
    ))

    result = ExperimentResult(
        experiment_id="kernel_micro",
        paper_reference="runtime backends (not in paper)",
        description="Kernel-level microbenchmark: INT8 GEMM, rowwise-"
                    "quantized GEMM, depthwise products and fused plans "
                    "per backend",
        parameters={
            "repeats": REPEATS,
            "gemm_large": [LARGE_M, LARGE_K, LARGE_N],
            "rowwise_serve": [SERVE_ROWS, SERVE_IN, SERVE_OUT],
            "conv_cols": [CONV_ROWS, CONV_K, CONV_N],
            "depthwise": [DW_POSITIONS, DW_CHANNELS, DW_KERNEL],
        },
        results=measured,
        notes="All backends verified bit-identical to reference before "
              "timing; timings are wall-clock on shared hardware.  This "
              "record also feeds measured auto-pinning (--pin auto).",
    )
    save_experiment(result)

    # The structural wins fusion/tiling pay for must actually show up; on
    # shared runners the checks are advisory unless REPRO_BENCH_STRICT=1.
    # The fused yardstick is the *unfused fast* time — the hot path before
    # this layer existed — not each backend against itself, which on
    # single-core hosts drowns in worker-pool jitter for ``parallel``.
    complaints = []
    baseline = fused.get("fast", {}).get("unfused_ms")
    for name, stats in fused.items():
        if baseline is not None and stats["fused_ms"] >= baseline:
            complaints.append(
                f"fused {name} plan did not beat the unfused fast path "
                f"({stats['fused_ms']:.3f}ms vs {baseline:.3f}ms)"
            )
    parallel_large = timings["gemm_large"].get("parallel")
    fast_large = timings["gemm_large"].get("fast")
    if parallel_large is not None and fast_large is not None:
        if parallel_large > 1.25 * fast_large:
            complaints.append(
                f"parallel lost to fast on gemm_large "
                f"({parallel_large:.3f}ms vs {fast_large:.3f}ms)"
            )
    for complaint in complaints:
        emit(f"ADVISORY: {complaint}")
    if STRICT:
        assert not complaints, "; ".join(complaints)
