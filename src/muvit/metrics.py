"""Segmentation overlap metrics (IoU, F1/Dice) and the evaluation harness.

A pixel is predicted foreground when its sigmoid probability is at least
PROB_THRESHOLD (0.5). Counts are kept as integers so the exact identity
F1 = 2*IoU / (1 + IoU) holds in rational arithmetic. When prediction and
ground truth are both empty, both metrics are defined as 1.0 so
all-background samples do not poison dataset means.
"""

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .data import standardize
from .tensor import ConfigError, Tensor

PROB_THRESHOLD = 0.5


@dataclass
class SampleMetrics:
    iou: float
    f1: float
    intersection: int
    pred_size: int
    gt_size: int


@dataclass
class EvalResult:
    per_sample: list = field(default_factory=list)
    mean_iou: float = 0.0
    mean_f1: float = 0.0

    def to_records(self):
        return [{"index": i, "iou": s.iou, "f1": s.f1,
                 "intersection": s.intersection, "pred_size": s.pred_size,
                 "gt_size": s.gt_size} for i, s in enumerate(self.per_sample)]


def _counts_to_metrics(inter, psize, gsize):
    union = psize + gsize - inter
    if union == 0:
        return 1.0, 1.0
    iou = inter / union
    f1 = 2 * inter / (psize + gsize)
    return iou, f1


def segmentation_metrics(logits, gt):
    """Per-sample IoU and F1 of sigmoid predictions thresholded at PROB_THRESHOLD.

    Accepts [C,H,W] or [N,C,H,W]; each sample is scored over all its pixels.
    """
    logits = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    gt = gt.data if isinstance(gt, Tensor) else np.asarray(gt)
    if logits.shape != gt.shape:
        raise ConfigError(f"metric shapes differ: {logits.shape} vs {gt.shape}")
    if not np.all((gt == 0) | (gt == 1)):
        raise ConfigError("ground truth must be binary {0,1}")
    if logits.ndim == 3:
        logits = logits[None]
        gt = gt[None]
    prob = 1.0 / (1.0 + np.exp(-logits.astype(np.float64)))
    pred = prob >= PROB_THRESHOLD
    gtb = gt >= 0.5
    result = EvalResult()
    for i in range(logits.shape[0]):
        inter = int(np.logical_and(pred[i], gtb[i]).sum())
        psize = int(pred[i].sum())
        gsize = int(gtb[i].sum())
        iou, f1 = _counts_to_metrics(inter, psize, gsize)
        result.per_sample.append(SampleMetrics(iou, f1, inter, psize, gsize))
    result.mean_iou = float(np.mean([s.iou for s in result.per_sample]))
    result.mean_f1 = float(np.mean([s.f1 for s in result.per_sample]))
    return result


def evaluate(model, dataset, batch_size=8):
    """Mean of per-sample metrics over a dataset, in deterministic order, run
    in eval mode; the model is left in the mode it was in."""
    if not dataset:
        raise ConfigError("evaluate: empty dataset")
    result = EvalResult()
    dtype = T.DTYPES[model.cfg.dtype]
    was_training = model.training
    model.eval()
    try:
        for start in range(0, len(dataset), batch_size):
            chunk = dataset[start:start + batch_size]
            x = Tensor(np.stack([standardize(s.image) for s in chunk]).astype(dtype))
            y = np.stack([s.mask for s in chunk])
            logits = model(x)
            part = segmentation_metrics(logits.data, y)
            result.per_sample.extend(part.per_sample)
    finally:
        if was_training:
            model.train()
    result.mean_iou = float(np.mean([s.iou for s in result.per_sample]))
    result.mean_f1 = float(np.mean([s.f1 for s in result.per_sample]))
    return result
