"""Measured auto-pinning: resolve per-layer backends from timing data.

Hand-written ``--pin`` specs encode a human's guess about which backend wins
at which layer shape; with several backends (``reference``/``fast``/
``parallel``) that guess does not scale.  This module turns the guess into
a measurement:

* :func:`load_recorded_cases` reads the committed kernel microbenchmark
  record (``benchmarks/results/kernel_micro.json``) and keeps it only when
  its ``meta`` sysinfo block matches the machine it is running on and it
  covers every candidate backend — a record measured on different hardware
  (or before a backend existed) is *stale* and is ignored.
* :func:`calibrate` times the serving-shaped quantize+GEMM kernel at the
  exact layer shapes of a compiled plan, in-process, in a ~100 ms budget
  (small best-of repeats, rows capped).  It fills in whenever the recorded
  data is absent or stale, and its results are cached per shape set.
* :func:`autopin` (and :func:`autopin_steps`, the pass ``compile_plan``
  runs for ``pins="auto"``) rewrites each GEMM-bearing
  :class:`~repro.runtime.plan.KernelStep` with ``backend=`` the measured
  winner for its ``(rows, reduce_dim)`` shape.

Only the exact, bit-identical builtin backends are candidates
(:data:`AUTOPIN_CANDIDATES`): auto-pinning is a pure performance decision
and must never route a layer onto an unverified user-registered backend.
Non-GEMM steps (depthwise, norms, activations) keep the ambient backend
selection.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.registry import get_registry
from repro.runtime.plan import KernelStep
from repro.utils.sysinfo import machine_meta, same_machine

# Routing decisions published into the registry: how often in-process
# calibration ran (each one is ~100 ms a fresh kernel_micro record would
# have saved), what it cost, and which backend each auto-pinned step
# actually landed on — the live answer to "where is traffic routed?".
_OBS = get_registry()
_CALIBRATIONS = _OBS.counter(
    "repro_autopin_calibrations_total",
    help="In-process autopin calibration runs.")
_CALIBRATION_MS = _OBS.gauge(
    "repro_autopin_calibration_ms",
    help="Wall-clock of the most recent autopin calibration, ms.")


def _count_pinned_step(backend: str) -> None:
    _OBS.counter(
        "repro_autopin_steps_total",
        help="Plan steps auto-pinned, by winning backend.",
        backend=backend,
    ).inc()

#: backends auto-pinning may choose between, in preference order for ties —
#: all bit-identical, so a wrong pick can only cost time, never a number.
AUTOPIN_CANDIDATES = ("fast", "parallel")

#: default expected GEMM rows when the caller gives no batch hint: the
#: serve-shaped folded readout (10 label overlays x 32 coalesced requests).
DEFAULT_BATCH_ROWS = 320

#: environment override for the recorded-timings file.
KERNEL_MICRO_ENV_VAR = "REPRO_KERNEL_MICRO"

#: calibration budget knobs: best-of repeats and a cap on synthetic rows
#: (a winner at the cap generalizes upward — the crossovers are monotone in
#: rows for the row-tiled backends).
_CALIBRATE_REPEATS = 3
_CALIBRATE_MAX_ROWS = 1024

#: in-process calibration cache: shape/candidates -> timings (ms).
_calibration_cache: Dict[tuple, Dict[str, float]] = {}


class TimingCase:
    """One measured GEMM shape with per-backend wall-clock timings (ms)."""

    __slots__ = ("rows", "reduce_dim", "cols", "timings")

    def __init__(self, rows: int, reduce_dim: int, cols: int,
                 timings: Dict[str, float]) -> None:
        self.rows = int(rows)
        self.reduce_dim = int(reduce_dim)
        self.cols = int(cols)
        self.timings = dict(timings)

    def distance(self, rows: int, reduce_dim: int) -> float:
        """Log-space distance from this case to a query shape."""
        return abs(math.log(max(rows, 1) / max(self.rows, 1))) + abs(
            math.log(max(reduce_dim, 1) / max(self.reduce_dim, 1))
        )

    def __repr__(self) -> str:
        return (
            f"TimingCase(rows={self.rows}, reduce={self.reduce_dim}, "
            f"cols={self.cols}, timings={self.timings})"
        )


# --------------------------------------------------------------------------- #
# recorded timings (kernel_micro.json)
# --------------------------------------------------------------------------- #
def _default_record_path() -> Path:
    override = os.environ.get(KERNEL_MICRO_ENV_VAR)
    if override:
        return Path(override)
    # src/repro/runtime/ -> repo root; only meaningful for source checkouts,
    # which is where the committed benchmark records live.
    return (
        Path(__file__).resolve().parents[3]
        / "benchmarks" / "results" / "kernel_micro.json"
    )


def record_is_fresh(record: dict, candidates: Sequence[str]) -> bool:
    """True when a kernel_micro record speaks for *this* machine and setup.

    Wall-clock crossovers move with the CPU, the core count, and the
    BLAS/NumPy build; a record from any other combination must not steer
    routing here.  It must also cover every candidate backend — a record
    written before a backend existed cannot rank it.
    """
    if not same_machine(record.get("meta"), machine_meta()):
        return False
    kernels = (record.get("results") or {}).get("kernels") or {}
    for case in ("gemm_large", "rowwise_serve"):
        timings = kernels.get(case) or {}
        if not all(name in timings for name in candidates):
            return False
    return True


def cases_from_record(record: dict) -> List[TimingCase]:
    """Timing cases for the record's dense-GEMM shapes (rows, K, N).

    ``conv_cols`` (the im2col'd conv GEMM shape, present in records written
    since the conv serving path landed) rides along when available, so
    conv-shaped plan steps resolve against a measured conv point instead of
    the nearest dense one.
    """
    parameters = record.get("parameters") or {}
    kernels = (record.get("results") or {}).get("kernels") or {}
    cases = []
    for name in ("rowwise_serve", "gemm_large", "conv_cols"):
        shape = parameters.get(name)
        timings = kernels.get(name)
        if shape and timings:
            cases.append(TimingCase(shape[0], shape[1], shape[2], timings))
    return cases


def load_recorded_cases(
    path: Optional[os.PathLike] = None,
    candidates: Sequence[str] = AUTOPIN_CANDIDATES,
) -> Optional[List[TimingCase]]:
    """Recorded timing cases, or ``None`` when absent/stale for this CPU."""
    record_path = Path(path) if path is not None else _default_record_path()
    try:
        record = json.loads(record_path.read_text())
    except (OSError, ValueError):
        return None
    if not record_is_fresh(record, candidates):
        return None
    cases = cases_from_record(record)
    return cases or None


# --------------------------------------------------------------------------- #
# in-process calibration
# --------------------------------------------------------------------------- #
def time_rowwise_kernel(
    backend,
    rows: int,
    reduce_dim: int,
    cols: int,
    repeats: int = _CALIBRATE_REPEATS,
    seed: int = 0,
) -> float:
    """Best-of wall-clock (ms) of one fused quantize+GEMM case.

    The timing harness :func:`calibrate` ranks backends with.  Operands
    are seeded, so equal (shape, seed) calls time identical data.
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, reduce_dim)).astype(np.float32)
    rhs = rng.integers(-127, 128, size=(reduce_dim, cols)).astype(np.int8)
    backend.rowwise_quantized_gemm(x, rhs, 127)  # warm-up
    best = float("inf")
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        backend.rowwise_quantized_gemm(x, rhs, 127)
        best = min(best, time.perf_counter() - started)
    return 1000.0 * best


def calibrate(
    shapes: Sequence[Tuple[int, int, int]],
    candidates: Sequence[str] = AUTOPIN_CANDIDATES,
    repeats: int = _CALIBRATE_REPEATS,
    seed: int = 0,
) -> List[TimingCase]:
    """Time the fused quantize+GEMM at ``shapes`` on each candidate backend.

    The serving hot kernel (``rowwise_quantized_gemm``) stands in for the
    whole dense-GEMM surface: the backends differ by their tiling strategy,
    not by kernel-specific constants, so its crossover ranks them for
    ``int8_gemm`` and the float GEMMs too.  Results are cached per
    (shape, candidates) for the life of the process; a full calibration of
    a few layer shapes stays in a ~100 ms budget.
    """
    from repro.runtime.backends import available_backends, get_backend

    registered = set(available_backends())
    names = [name for name in candidates if name in registered]
    # Pool-owning backends whose workers the *measurement* starts are
    # released again afterwards: a candidate that loses everywhere would
    # otherwise keep workers alive with no engine owning (and eventually
    # closing) them.  Winners restart their pool lazily on the first real
    # kernel call.
    idle_before = [
        backend for backend in (get_backend(name) for name in names)
        if not getattr(backend, "pool_active", True)
    ]
    measured = False
    calibration_started = time.perf_counter()
    cases = []
    for rows, reduce_dim, cols in shapes:
        rows_c = max(1, min(int(rows), _CALIBRATE_MAX_ROWS))
        key = (rows_c, int(reduce_dim), int(cols), tuple(names),
               int(repeats), int(seed))
        timings = _calibration_cache.get(key)
        if timings is None:
            measured = True
            timings = {
                name: time_rowwise_kernel(
                    get_backend(name), rows_c, reduce_dim, cols,
                    repeats=repeats, seed=seed,
                )
                for name in names
            }
            _calibration_cache[key] = timings
        cases.append(TimingCase(rows_c, reduce_dim, cols, timings))
    if measured:
        _CALIBRATIONS.inc()
        _CALIBRATION_MS.set(
            (time.perf_counter() - calibration_started) * 1e3
        )
        for backend in idle_before:
            if backend.pool_active:
                backend.shutdown()
    return cases


def clear_calibration_cache() -> None:
    """Forget in-process calibration measurements (tests, CPU migration)."""
    _calibration_cache.clear()


# --------------------------------------------------------------------------- #
# resolution
# --------------------------------------------------------------------------- #
def gemm_shape(step: KernelStep) -> Optional[Tuple[int, int]]:
    """``(reduce_dim, cols)`` of the GEMM a step executes, if any.

    Covers the dense GEMMs (:class:`Linear`) and the im2col-lowered
    convolutions (:class:`Conv2d`), whose weight ``(out_c, C, kh, kw)``
    flattens to the ``(C*kh*kw, out_c)`` GEMM operand.  Depthwise steps are
    not GEMMs (their reduction is a per-position inner product) and return
    ``None`` — they keep the ambient backend selection.
    """
    if step.kind not in ("gemm", "conv"):
        return None
    engine = getattr(step.module, "quant_engine", None)
    weight_qt = getattr(engine, "weight_qT", None)
    if weight_qt is not None and getattr(weight_qt, "ndim", 0) == 2:
        return int(weight_qt.shape[0]), int(weight_qt.shape[1])
    weight = getattr(getattr(step.module, "weight", None), "data", None)
    if weight is not None and weight.ndim >= 2:
        # Linear: (out, in); Conv2d: (out, C, kh, kw) — both reduce
        # over everything but the leading output axis.
        return (
            int(np.prod(weight.shape[1:], dtype=np.int64)),
            int(weight.shape[0]),
        )
    return None


def _propagate_shape(step: KernelStep, shape):
    """Next per-sample activation shape after ``step``, or ``None``.

    Best-effort shape inference used to scale the expected GEMM rows by
    the conv feature-map positions (``rows = batch * out_h * out_w``).
    Opaque ``module`` steps (residual blocks, SE gates) stop propagation —
    downstream conv steps then fall back to the bare batch height, which
    is conservative: it can only under-pin toward the small-rows winner.
    """
    if shape is None:
        return None
    module = step.module
    kind = step.kind
    if kind in ("conv", "depthwise", "pool"):
        output_shape = getattr(module, "output_shape", None)
        if callable(output_shape) and len(shape) == 3:
            try:
                shape = tuple(
                    int(v) for v in output_shape((1,) + tuple(shape))[1:]
                )
            except Exception:
                return None
        elif kind == "pool" and len(shape) == 3 and not hasattr(
            module, "kernel_size"
        ):
            shape = (shape[0],)  # global average pool -> (C,)
        elif kind == "pool" and len(shape) == 3:
            from repro.nn.functional import conv_output_size

            kh, kw = module.kernel_size
            sh, sw = module.stride
            ph, pw = getattr(module, "padding", (0, 0))
            try:
                shape = (
                    shape[0],
                    conv_output_size(shape[1], kh, sh, ph),
                    conv_output_size(shape[2], kw, sw, pw),
                )
            except ValueError:
                return None
        else:
            return None
    elif kind == "reshape":
        shape = (int(np.prod(shape, dtype=np.int64)),)
    elif kind == "gemm":
        weight = getattr(getattr(module, "weight", None), "data", None)
        if weight is None:
            return None
        shape = (int(weight.shape[0]),)
    elif kind not in ("norm", "activation", "dropout", "identity"):
        return None  # opaque composite: output shape unknowable here
    return shape


def _step_rows(
    steps: Sequence[KernelStep],
    batch_rows: int,
    input_shape: Optional[Sequence[int]],
) -> List[int]:
    """Expected GEMM rows per step: batch height x conv spatial positions."""
    rows = []
    shape = tuple(int(v) for v in input_shape) if input_shape else None
    for step in steps:
        step_rows = batch_rows
        if shape is not None and len(shape) == 3 and step.kind == "conv":
            try:
                _, _, out_h, out_w = step.module.output_shape(
                    (1,) + shape
                )
                step_rows = batch_rows * int(out_h) * int(out_w)
            except Exception:
                pass
        rows.append(step_rows)
        shape = _propagate_shape(step, shape)
    return rows


def resolve_backend(
    rows: int,
    reduce_dim: int,
    cases: Sequence[TimingCase],
    candidates: Sequence[str] = AUTOPIN_CANDIDATES,
) -> Optional[str]:
    """The measured winner for a GEMM shape (nearest case in log space)."""
    best_case = None
    for case in cases:
        if not any(name in case.timings for name in candidates):
            continue
        if best_case is None or case.distance(rows, reduce_dim) < (
            best_case.distance(rows, reduce_dim)
        ):
            best_case = case
    if best_case is None:
        return None
    winner = None
    for name in candidates:  # candidate order breaks exact ties
        ms = best_case.timings.get(name)
        if ms is not None and (winner is None or ms < best_case.timings[winner]):
            winner = name
    return winner


def autopin_steps(
    steps: Sequence[KernelStep],
    batch_rows: Optional[int] = None,
    cases: Optional[Sequence[TimingCase]] = None,
    candidates: Sequence[str] = AUTOPIN_CANDIDATES,
    input_shape: Optional[Sequence[int]] = None,
) -> List[KernelStep]:
    """Rewrite GEMM-bearing steps with their measured backend winner.

    ``cases`` defaults to the committed kernel microbenchmark record when
    it is fresh for this machine, else to an in-process calibration over
    the plan's own layer shapes.  GEMM-bearing steps include the im2col'd
    convolutions: with ``input_shape`` (the per-sample ``(C, H, W)``) their
    expected rows scale by the conv's feature-map positions — the height
    the tiled column blocks actually run at.  Steps without a resolvable
    GEMM shape (depthwise, pools, opaque modules) pass through unpinned.
    """
    from dataclasses import replace

    rows = int(batch_rows) if batch_rows else DEFAULT_BATCH_ROWS
    shapes = [gemm_shape(step) for step in steps]
    step_rows = _step_rows(steps, rows, input_shape)
    if cases is None:
        cases = load_recorded_cases(candidates=candidates)
    if cases is None:
        wanted = sorted(
            {
                (r, k, n)
                for r, shape in zip(step_rows, shapes)
                if shape
                for k, n in [shape]
            }
        )
        cases = calibrate(wanted, candidates=candidates) if wanted else []
    pinned = []
    for step, shape, r in zip(steps, shapes, step_rows):
        if shape is None:
            pinned.append(step)
            continue
        winner = resolve_backend(r, shape[0], cases, candidates)
        if winner:
            _count_pinned_step(winner)
        pinned.append(replace(step, backend=winner) if winner else step)
    return pinned


def autopin(
    plan,
    batch_rows: Optional[int] = None,
    cases: Optional[Sequence[TimingCase]] = None,
    candidates: Sequence[str] = AUTOPIN_CANDIDATES,
    input_shape: Optional[Sequence[int]] = None,
):
    """A copy of ``plan`` with every GEMM step pinned to its measured winner.

    ``batch_rows`` is the expected GEMM batch height (for serving: the
    coalesced batch times the folded label count); it defaults to the
    serve-shaped :data:`DEFAULT_BATCH_ROWS`.  ``input_shape`` lets conv
    steps scale that height by their feature-map positions.  See
    :func:`autopin_steps` for the timing-source resolution order.
    """
    from dataclasses import replace as dc_replace

    steps = autopin_steps(
        plan.steps, batch_rows=batch_rows, cases=cases,
        candidates=candidates, input_shape=input_shape,
    )
    return dc_replace(plan, steps=steps)


__all__ = [
    "AUTOPIN_CANDIDATES",
    "DEFAULT_BATCH_ROWS",
    "KERNEL_MICRO_ENV_VAR",
    "TimingCase",
    "record_is_fresh",
    "cases_from_record",
    "load_recorded_cases",
    "time_rowwise_kernel",
    "calibrate",
    "clear_calibration_cache",
    "gemm_shape",
    "resolve_backend",
    "autopin_steps",
    "autopin",
]
