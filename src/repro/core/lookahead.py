"""Look-ahead gradient computation (Section IV-C, Equations 3–4).

The look-ahead scheme redefines the loss of layer *i* as

    ``L_new,i = L_i + λ · (L_{i+1} + … + L_final)``

so that earlier layers receive feedback from later ones.  Differentiating and
using the fact that losses of *earlier* layers do not depend on the weights of
layer *i*, the weight gradient can be rewritten as

    ``∂L_new,i/∂W_i = (1 − λ) · ∂L_i/∂W_i + λ · ∂S/∂W_i``

where ``S = Σ_j L_j`` is the sum of **all** per-layer losses.  The second term
is computable for every layer simultaneously with a single sweep that injects
each layer's local activity gradient at its output and propagates downward —
one forward pass and one gradient sweep per mini-batch, which is how
Algorithm 1 keeps the cost at ``k × n`` derivative computations.

Two modes are exposed (see DESIGN.md §5):

* ``"chained"`` — the exact decomposition above (default; reproduces the
  accuracy behaviour of Figure 6).
* ``"local"``  — cross-layer terms dropped (``∂L_j/∂W_i ≈ 0`` for ``j ≠ i``);
  every layer still updates from the shared forward pass, which is the
  literal cost claim in the paper's text.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.goodness import GoodnessFunction
from repro.core.losses import FFLoss
from repro.nn.module import Module

LOOKAHEAD_MODES = ("chained", "local")


def unit_losses_and_grads(
    activations: Sequence[np.ndarray],
    goodness: GoodnessFunction,
    ff_loss: FFLoss,
    positive: bool,
) -> tuple[List[float], List[np.ndarray]]:
    """Per-unit mean losses and activity gradients ``∂L_i/∂y_i``.

    The activity gradient is the tensor FF-INT8 quantizes to INT8 before the
    weight-gradient GEMM (``g_Y`` in Figure 4 of the paper).
    """
    losses: List[float] = []
    grads: List[np.ndarray] = []
    for activity in activations:
        value = goodness.value(activity)
        losses.append(ff_loss.mean_loss(value, positive))
        grads.append(ff_loss.activity_grad(activity, goodness.grad, value, positive))
    return losses, grads


def accumulate_local_gradients(
    units: Sequence[Module],
    activity_grads: Sequence[np.ndarray],
    scale: float = 1.0,
) -> None:
    """Accumulate each unit's own-loss weight gradients (no cross-layer terms)."""
    if scale == 0.0:
        return
    for unit, grad in zip(units, activity_grads):
        unit.backward(grad if scale == 1.0 else grad * scale)


def accumulate_chained_gradients(
    units: Sequence[Module],
    activity_grads: Sequence[np.ndarray],
    scale: float = 1.0,
) -> None:
    """Accumulate ``scale · ∂S/∂W`` for every unit with one downward sweep.

    ``S`` is the sum of all per-unit losses; the sweep starts at the deepest
    unit and injects each unit's local activity gradient on the way down.
    """
    if scale == 0.0:
        return
    upstream: Optional[np.ndarray] = None
    for unit, grad in zip(reversed(list(units)), reversed(list(activity_grads))):
        total = grad if upstream is None else grad + upstream
        if scale != 1.0:
            total = total * scale if upstream is None else grad * scale + upstream
        upstream = unit.backward(total)


def accumulate_lookahead_gradients(
    units: Sequence[Module],
    activity_grads: Sequence[np.ndarray],
    lam: float,
    mode: str = "chained",
) -> None:
    """Accumulate the look-ahead weight gradients for every unit.

    Parameters
    ----------
    units:
        FF units in forward order; their forward pass for the current batch
        must already have run with activation caching enabled.
    activity_grads:
        ``∂L_i/∂y_i`` for each unit (from :func:`unit_losses_and_grads`).
    lam:
        Look-ahead coefficient λ.  ``lam == 0`` reduces to plain layer-local
        FF updates regardless of mode.
    mode:
        ``"chained"`` for the exact Equation 4 gradient, ``"local"`` to drop
        cross-layer terms.
    """
    if mode not in LOOKAHEAD_MODES:
        raise ValueError(
            f"unknown look-ahead mode {mode!r}; expected one of {LOOKAHEAD_MODES}"
        )
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    if len(units) != len(activity_grads):
        raise ValueError(
            f"got {len(units)} units but {len(activity_grads)} activity gradients"
        )

    if mode == "local" or lam == 0.0:
        accumulate_local_gradients(units, activity_grads, scale=1.0)
        return

    # Exact decomposition: (1 - λ) · local + λ · full-sum sweep.
    local_part: Dict[int, np.ndarray] = {}
    if lam < 1.0:
        accumulate_local_gradients(units, activity_grads, scale=1.0)
        for unit in units:
            for param in unit.parameters():
                if param.grad is not None:
                    local_part[id(param)] = (1.0 - lam) * param.grad
                    param.grad = None

    accumulate_chained_gradients(units, activity_grads, scale=1.0)
    for unit in units:
        for param in unit.parameters():
            if param.grad is not None:
                param.grad = lam * param.grad
            if id(param) in local_part:
                if param.grad is None:
                    param.grad = local_part[id(param)].copy()
                else:
                    param.grad += local_part[id(param)]
