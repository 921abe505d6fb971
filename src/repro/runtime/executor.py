"""Plan execution: the one forward path every workload routes through.

Before the runtime layer, the repo carried three hand-rolled forward walks
that had to stay numerically identical — the FF trainer's
``forward_through_units``, :class:`FFGoodnessClassifier` inference, and the
serving engine's folded-label readout.  :class:`PlanExecutor` replaces all
of them: it runs a compiled :class:`~repro.runtime.plan.ExecutionPlan` step
by step on a selected backend, and offers the derived read-outs (per-unit
activities, accumulated goodness, label-probe goodness matrices in both the
per-label-loop and folded-batch forms) in one place.

Numerical contract: executing a plan is arithmetic-identical to walking the
original module tree.  Unfused steps *are* the original modules; fused
norm→gemm→activation steps run the same arithmetic through the backend's
``fused_*`` kernels (skipping the intermediate materializations), and the
executor falls back to the step-by-step module walk whenever fusion could be
observable — on backends without fusion support (``reference``), when a
constituent module must fill its activation cache for a backward pass, or
while instrumentation hooks are registered (so per-module observers miss
nothing).  Only the GEMMs inside route through the pluggable backend, and
every shipped backend is exact.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from repro.nn.functional import im2col
from repro.nn.module import Module
from repro.nn.norm import _BatchNormBase
from repro.obs import trace as obs_trace
from repro.runtime import dispatch, instrument
from repro.runtime.dispatch import BackendLike
from repro.runtime.plan import (
    ExecutionPlan,
    KernelStep,
    activation_applier,
    compile_plan,
)


def _fused_fallback_required(step: KernelStep) -> bool:
    """True when a fused step must run as the original module walk.

    A constituent that would cache activations (training mode with caching
    enabled) needs its module ``forward`` to run so the backward pass finds
    its tensors; fused execution would silently starve it.  A training-mode
    BatchNorm must mutate its running statistics, which only its module
    ``forward`` does — folding it would silently freeze the stats — so it
    refuses to fold regardless of the caching flag.
    """
    for sub in step.fused:
        module = sub.module
        if module.training and (
            module.cache_activations or isinstance(module, _BatchNormBase)
        ):
            return True
    return False


def _batchnorm_applier(norm: Module):
    """In-place eval-mode BatchNorm epilogue over channel-trailing rows.

    Computes exactly the module's eval arithmetic — ``x_hat = (x - mean) *
    inv_std`` then ``gamma * x_hat + beta``, each a separate float32 ufunc
    pass — on a ``(rows, channels)`` GEMM output, where broadcasting over
    the trailing axis pairs every element with the same per-channel
    statistics the NCHW module walk would.  Elementwise, so the result is
    bit-identical whatever layout the values sit in.
    """
    def apply(out: np.ndarray) -> np.ndarray:
        inv_std = 1.0 / np.sqrt(norm.running_var + norm.eps)
        out -= norm.running_mean
        out *= inv_std
        out *= norm.gamma.data
        out += norm.beta.data
        return out

    return apply


def _split_fused(step: KernelStep):
    """(pre_norm, core, post_norm, activation) constituents of a fused step."""
    pre = core = post = act = None
    for sub in step.fused:
        if sub.kind == "norm":
            if isinstance(sub.module, _BatchNormBase):
                post = sub
            else:
                pre = sub
        elif sub.kind == "activation":
            act = sub
        else:
            core = sub
    return pre, core, post, act


def _run_fused_conv(
    core: KernelStep, hidden: np.ndarray, bn_apply, act_apply
) -> np.ndarray:
    """Execute a fused conv/depthwise step: one im2col'd GEMM + epilogues.

    The convolution lowers exactly as its module forward does (same im2col,
    same GEMM through the quant engine or :func:`dispatch.matmul`, same
    bias add); the BatchNorm fold and activation then run as elementwise
    passes on the ``(positions, channels)`` column-layout output *before*
    the NCHW transpose — skipping the intermediate 4-D materializations the
    module walk pays between conv, norm and activation.
    """
    module = core.module
    batch = hidden.shape[0]
    _, _, out_h, out_w = module.output_shape(hidden.shape)
    cols = im2col(hidden, module.kernel_size, module.stride, module.padding)
    if core.kind == "depthwise":
        channels = module.channels
        kernel_area = module.kernel_size[0] * module.kernel_size[1]
        cols = cols.reshape(-1, channels, kernel_area)
        weight = module.weight.data.reshape(channels, kernel_area)
        if module.quant_engine is not None:
            out = module.quant_engine.depthwise_forward(cols, weight)
        else:
            out = np.einsum("pck,ck->pc", cols, weight)
    else:
        channels = module.out_channels
        weight_matrix = module.weight.data.reshape(channels, -1)
        if module.quant_engine is not None:
            out = module.quant_engine.linear_forward(cols, weight_matrix)
        else:
            out = dispatch.matmul(cols, weight_matrix.T)
    if module.bias is not None:
        out = out + module.bias.data
    out = out.astype(np.float32, copy=False)
    if bn_apply is not None:
        out = bn_apply(out)
    if act_apply is not None:
        out = act_apply(out)
    out = out.reshape(batch, out_h, out_w, channels)
    return out.transpose(0, 3, 1, 2).astype(np.float32)


def _run_fused(step: KernelStep, hidden: np.ndarray) -> np.ndarray:
    """Execute a fused plan step on the active backend."""
    backend = dispatch.active_backend()
    pre, core, post, act = _split_fused(step)
    applier = activation_applier(act.module) if act is not None else None
    bn_apply = _batchnorm_applier(post.module) if post is not None else None
    if core.kind in ("conv", "depthwise"):
        return _run_fused_conv(core, hidden, bn_apply, applier)
    gemm = core.module
    if pre is not None:
        hidden = backend.fused_ffnorm(hidden, pre.module.eps)
    if hidden.ndim != 2:
        hidden = hidden.reshape(hidden.shape[0], -1)
    if gemm.quant_engine is not None:
        # The engine performs its own dispatched, op-counted GEMM; bias,
        # BatchNorm fold and activation then mutate its freshly-allocated
        # output in place.
        out = gemm.quant_engine.linear_forward(hidden, gemm.weight.data)
        if gemm.bias is not None:
            out += gemm.bias.data
        out = out.astype(np.float32, copy=False)
        if bn_apply is not None:
            out = bn_apply(out)
        if applier is not None:
            out = applier(out)
        return out
    if bn_apply is not None:
        epilogue = (
            bn_apply if applier is None
            else (lambda out: applier(bn_apply(out)))
        )
    else:
        epilogue = applier
    return dispatch.fused_matmul_bias_act(
        hidden,
        gemm.weight.data.T,
        None if gemm.bias is None else gemm.bias.data,
        epilogue,
        backend=backend,
    )


class PlanExecutor:
    """Executes a compiled plan on a (lazily resolved) kernel backend.

    ``static_eval=True`` declares that the plan's units are permanently in
    eval mode (frozen serving artifacts): :meth:`inference_mode` then skips
    the save/eval/restore traversal of the module tree, which would
    otherwise be two recursive flag walks of pure overhead — and a
    cross-thread mutation of shared module state — per served batch.
    """

    def __init__(
        self,
        plan: ExecutionPlan,
        backend: BackendLike = None,
        static_eval: bool = False,
    ) -> None:
        self.plan = plan
        self.backend = backend
        self.static_eval = static_eval
        # Snapshot the ambient default for lifecycle bookkeeping: an engine
        # built under one default and closed under another must release the
        # pools it actually used, not whatever the default is at close time
        # (kernel execution still follows the live ambient selection).
        self._default_backend_at_build = dispatch.default_backend_name()

    # ------------------------------------------------------------------ #
    @classmethod
    def for_units(
        cls,
        units: Sequence[Module],
        flatten_input: bool = False,
        backend: BackendLike = None,
        static_eval: bool = False,
        fuse: bool = True,
        pins: Optional[Dict[str, str]] = None,
        auto_rows: Optional[int] = None,
        auto_input_shape: Optional[Sequence[int]] = None,
    ) -> "PlanExecutor":
        """Compile ``units`` and wrap the plan in an executor.

        ``fuse``, ``pins``, ``auto_rows`` and ``auto_input_shape`` forward
        to :func:`compile_plan` (fused norm/gemm/conv/activation steps,
        per-layer backend pinning — hand-written or ``pins="auto"``
        measured, with conv rows scaled by the feature-map positions).
        """
        return cls(
            compile_plan(units, flatten_input=flatten_input, fuse=fuse,
                         pins=pins, auto_rows=auto_rows,
                         auto_input_shape=auto_input_shape),
            backend,
            static_eval=static_eval,
        )

    # ------------------------------------------------------------------ #
    def step_backend_objs(self) -> List:
        """Distinct backend instances this executor's plan can route to.

        Resolves per-step pins (names) and the executor-level selection
        (name, instance, or the ambient default) through the registry, so
        an engine constructed with a backend *instance* reaches that exact
        object — not the registry singleton of the same name.
        """
        raw = [
            step.backend for step in self.plan.steps
            if step.backend is not None
        ]
        raw.append(
            self.backend if self.backend is not None
            else self._default_backend_at_build
        )
        objs: List = []
        seen = set()
        for item in raw:
            try:
                backend = dispatch.get_backend(item)
            except ValueError:  # pragma: no cover - unregistered pin
                continue
            if id(backend) not in seen:
                seen.add(id(backend))
                objs.append(backend)
        return objs

    def step_backends(self) -> List[str]:
        """Distinct backend names this executor's plan can route to."""
        return sorted(backend.name for backend in self.step_backend_objs())

    def _prepare(self, inputs: np.ndarray) -> np.ndarray:
        if self.plan.flatten_input:
            return inputs.reshape(inputs.shape[0], -1)
        return inputs

    # ------------------------------------------------------------------ #
    def _run_step(self, step: KernelStep, hidden: np.ndarray) -> np.ndarray:
        """Execute one plan step (honouring pins and fused fast paths).

        The observability check is two thread-local/module attribute reads;
        un-observed requests take the original path untouched, which is what
        keeps tracing-off overhead under the 1% guard.
        """
        if obs_trace.has_active_trace() or instrument.step_hooks_active():
            return self._run_step_observed(step, hidden)
        if step.backend is not None:
            with dispatch.pin_backend(step.backend):
                return self._execute(step, hidden)
        return self._execute(step, hidden)

    def _run_step_observed(
        self, step: KernelStep, hidden: np.ndarray
    ) -> np.ndarray:
        """Timed variant of :meth:`_run_step`: span + ``on_step`` emission.

        Runs the *same* execution path — including fused kernels, because
        step hooks live outside the unfusing registry — and attributes each
        step to the backend that actually ran it (the pin, the executor
        selection, or the ambient default, resolved inside the pin context).
        """
        rows = int(hidden.shape[0])
        cols = int(np.prod(hidden.shape[1:])) if hidden.ndim > 1 else 1
        name = f"unit{step.unit_index}.{step.kind}"
        with obs_trace.span(name, rows=rows, cols=cols) as attrs:
            start_s = perf_counter()
            if step.backend is not None:
                with dispatch.pin_backend(step.backend):
                    backend_name = dispatch.active_backend().name
                    fused = self._step_runs_fused(step)
                    out = self._execute(step, hidden)
            else:
                backend_name = dispatch.active_backend().name
                fused = self._step_runs_fused(step)
                out = self._execute(step, hidden)
            duration_ms = (perf_counter() - start_s) * 1e3
            attrs["backend"] = backend_name
            attrs["fused"] = fused
        if instrument.step_hooks_active():
            instrument.emit_step(step, duration_ms, backend_name, rows)
        return out

    def _step_runs_fused(self, step: KernelStep) -> bool:
        """Will ``_execute`` run this step through the fused kernels?

        Must be asked with the step's backend pin already applied — the
        answer depends on the *active* backend's fusion support.
        """
        return (
            step.kind == "fused"
            and getattr(dispatch.active_backend(), "supports_fusion", False)
            and not instrument.hooks_active()
            and not _fused_fallback_required(step)
        )

    def _execute(self, step: KernelStep, hidden: np.ndarray) -> np.ndarray:
        if step.kind != "fused":
            return step.module(hidden)
        if not self._step_runs_fused(step):
            for sub in step.fused:
                hidden = sub.module(hidden)
            return hidden
        return _run_fused(step, hidden)

    @contextmanager
    def inference_mode(self) -> Iterator[None]:
        """Run the block with every unit in eval mode, then restore."""
        if self.static_eval:
            yield
            return
        flags = self.plan.training_flags()
        self.plan.eval()
        try:
            yield
        finally:
            self.plan.restore_training_flags(flags)

    # ------------------------------------------------------------------ #
    # core traversal
    # ------------------------------------------------------------------ #
    def unit_outputs(
        self, inputs: np.ndarray, limit: Optional[int] = None
    ) -> List[np.ndarray]:
        """Output activity of each unit (optionally only the first ``limit``).

        This is the shared forward pass of Algorithm 1: one traversal,
        every unit's activity collected for goodness/loss evaluation.
        """
        outputs: List[np.ndarray] = []
        with dispatch.use_backend(self.backend):
            hidden = self._prepare(inputs)
            for step in self.plan.steps:
                if limit is not None and step.unit_index >= limit:
                    break
                hidden = self._run_step(step, hidden)
                if step.is_unit_output:
                    outputs.append(hidden)
        return outputs

    def forward(self, inputs: np.ndarray) -> np.ndarray:
        """Final unit's output activity."""
        outputs = self.unit_outputs(inputs)
        return outputs[-1]

    # ------------------------------------------------------------------ #
    # goodness read-outs
    # ------------------------------------------------------------------ #
    def goodness_totals(
        self, inputs: np.ndarray, goodness, skip_first: bool
    ) -> np.ndarray:
        """Total goodness per row, accumulated over the counted units."""
        total = np.zeros(inputs.shape[0], dtype=np.float64)
        with dispatch.use_backend(self.backend):
            hidden = self._prepare(inputs)
            for step in self.plan.steps:
                hidden = self._run_step(step, hidden)
                if step.is_unit_output and not (
                    skip_first and step.unit_index == 0
                ):
                    total += goodness.value(hidden)
        return total.astype(np.float32)

    def goodness_matrix(
        self,
        inputs: np.ndarray,
        overlay,
        goodness,
        skip_first: bool,
        fold_labels: bool = False,
    ) -> np.ndarray:
        """Goodness for every (sample, candidate label) pair.

        ``fold_labels=False`` probes one label overlay at a time — the
        classical FF read-out, exact for engines whose activation scales are
        batch-global.  ``fold_labels=True`` folds every overlay into the
        batch dimension for a single traversal — valid only when activation
        quantization is per-row (the frozen serving kernels), where it is
        bit-identical to the per-label loop and ``num_classes`` times
        cheaper per traversal.
        """
        with self.inference_mode():
            if fold_labels:
                inputs = np.asarray(inputs, dtype=np.float32)
                if inputs.shape[0] == 0:
                    return np.zeros(
                        (0, overlay.num_classes), dtype=np.float32
                    )
                candidates = overlay.candidates(inputs)
                num_labels, batch = candidates.shape[0], candidates.shape[1]
                folded = candidates.reshape(
                    (num_labels * batch,) + candidates.shape[2:]
                )
                totals = self.goodness_totals(folded, goodness, skip_first)
                return np.ascontiguousarray(
                    totals.reshape(num_labels, batch).T
                )
            candidates = overlay.candidates(inputs)
            return np.stack(
                [
                    self.goodness_totals(candidates[label], goodness, skip_first)
                    for label in range(overlay.num_classes)
                ],
                axis=1,
            )

    def predict(
        self, inputs: np.ndarray, overlay, goodness, skip_first: bool,
        fold_labels: bool = False,
    ) -> np.ndarray:
        """Argmax label of the goodness matrix."""
        return np.argmax(
            self.goodness_matrix(
                inputs, overlay, goodness, skip_first, fold_labels=fold_labels
            ),
            axis=1,
        )


def forward_through_units(
    units: Sequence[Module], inputs: np.ndarray
) -> List[np.ndarray]:
    """Run one shared forward pass, returning every unit's output activity.

    Compatibility shim over :class:`PlanExecutor` for callers holding a bare
    unit list; hot loops should compile once and reuse the executor.
    """
    return PlanExecutor.for_units(units).unit_outputs(inputs)


__all__ = ["PlanExecutor", "forward_through_units"]
