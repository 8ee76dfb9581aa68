"""Loss kernels with exact gradients, the toy BEV model, training, metrics."""

from .losses import (lovasz_softmax, softmax_field, softmax_vjp, total_loss,
                     weighted_ce)
from .metrics import confusion_matrix, miou
from .model import (PILLAR_DIM, init_params, model_backward, model_forward,
                    pillar_features)
from .train import (NumericalError, evaluate, load_model, loss_weights,
                    one_cycle_lr, save_model, train)

__all__ = [
    "softmax_field", "weighted_ce", "lovasz_softmax", "total_loss",
    "softmax_vjp",
    "PILLAR_DIM", "init_params", "pillar_features",
    "model_forward", "model_backward",
    "train", "evaluate", "loss_weights",
    "one_cycle_lr", "save_model", "load_model", "NumericalError",
    "confusion_matrix", "miou",
]
