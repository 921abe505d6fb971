"""FF-INT8 core: the paper's primary contribution.

Contains the goodness functions, the Forward-Forward losses (Equations 1–2),
the look-ahead gradient machinery (Equations 3–4, Algorithm 1), the trainers
(vanilla FF, FF-INT8, FF-INT8 + look-ahead) and goodness-based classification.
"""

from repro.core.checkpoint import (
    FFCheckpoint,
    load_ff_checkpoint,
    restore_classifier,
    restore_units,
    save_ff_checkpoint,
)
from repro.core.classifier import FFGoodnessClassifier
from repro.core.ff_int8 import (
    FFInt8Config,
    FFInt8Trainer,
    ff_fp32,
    ff_int8_vanilla,
    ff_int8_with_lookahead,
)
from repro.core.ff_trainer import FFConfig, ForwardForwardTrainer
from repro.core.goodness import (
    GoodnessFunction,
    MeanSquaredGoodness,
    SumSquaredGoodness,
    build_goodness,
)
from repro.core.lookahead import (
    LOOKAHEAD_MODES,
    accumulate_chained_gradients,
    accumulate_local_gradients,
    accumulate_lookahead_gradients,
    unit_losses_and_grads,
)
from repro.core.losses import (
    FFLoss,
    negative_loss,
    negative_loss_grad,
    positive_loss,
    positive_loss_grad,
)
from repro.core.readout import ReadoutConfig, SoftmaxReadout

__all__ = [
    "FFConfig",
    "ForwardForwardTrainer",
    "FFInt8Config",
    "FFInt8Trainer",
    "ff_int8_with_lookahead",
    "ff_int8_vanilla",
    "ff_fp32",
    "FFGoodnessClassifier",
    "GoodnessFunction",
    "SumSquaredGoodness",
    "MeanSquaredGoodness",
    "build_goodness",
    "FFLoss",
    "positive_loss",
    "negative_loss",
    "positive_loss_grad",
    "negative_loss_grad",
    "unit_losses_and_grads",
    "accumulate_local_gradients",
    "accumulate_chained_gradients",
    "accumulate_lookahead_gradients",
    "LOOKAHEAD_MODES",
    "SoftmaxReadout",
    "ReadoutConfig",
    "FFCheckpoint",
    "save_ff_checkpoint",
    "load_ff_checkpoint",
    "restore_units",
    "restore_classifier",
]
