"""From-scratch mobile U-shaped ViT segmentation network.

Numpy-backed tensor core with reverse-mode autodiff, the hybrid
conv/attention encoder and cascaded decoder, exact parameter/FLOP
accounting, seeded training, overlap metrics, bit-exact persistence,
and a CLI front end.
"""

from .tensor import (ConfigError, Graph, Tensor, UsageError, VerificationError,
                     backward, count_macs, gradcheck, no_grad, record)
from .model import MobileUViT, ModelConfig, build_model
from .accounting import CostReport, attention_cost_ratio, count_flops, count_params
from .training import LossTerms, SGD, augment, lr_schedule, seg_loss, train_loop
from .metrics import EvalResult, evaluate, segmentation_metrics
from .data import (Sample, load_checkpoint, load_dataset, save_checkpoint,
                   save_dataset, synth_dataset)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "Graph", "Tensor", "UsageError", "VerificationError",
    "backward", "count_macs", "gradcheck", "no_grad", "record",
    "MobileUViT", "ModelConfig", "build_model",
    "CostReport", "attention_cost_ratio", "count_flops", "count_params",
    "LossTerms", "SGD", "augment", "lr_schedule", "seg_loss", "train_loop",
    "EvalResult", "evaluate", "segmentation_metrics",
    "Sample", "load_checkpoint", "load_dataset", "save_checkpoint",
    "save_dataset", "synth_dataset",
    "__version__",
]
