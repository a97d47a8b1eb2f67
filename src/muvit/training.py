"""Loss, optimizer, LR schedules, augmentation, and the training loop.

The segmentation loss is total = 0.5 * BCE + Dice, built from recorded
tensor ops so its gradient flows through the same tape as the model.
train_loop always augments (seeded per epoch and sample) and steps SGD at
its default momentum 0.9 and weight decay 1e-4.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .data import standardize
from .metrics import evaluate
from .model import first_nonfinite_layer
from .tensor import ConfigError, Tensor, UsageError

BCE_CLAMP = 1e-7
DICE_EPS = 1.0


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class LossTerms:
    bce: Tensor
    dice: Tensor
    total: Tensor


def seg_loss(logits, target):
    """0.5 * BCE + Dice on sigmoid probabilities.

    Binary heads use one channel; multi-class heads are scored per channel
    (one-vs-rest sigmoid) and averaged. BCE clamps probabilities to
    [1e-7, 1 - 1e-7]; Dice is smoothed with eps = 1.0 so empty masks stay
    well-defined.
    """
    if logits.shape != target.shape:
        raise ConfigError(f"loss shapes differ: {logits.shape} vs {target.shape}")
    y = target.data
    if not np.all((y == 0) | (y == 1)):
        raise ConfigError("target mask must be binary {0,1}")
    prob = T.sigmoid(logits)
    pc = T.clip(prob, BCE_CLAMP, 1.0 - BCE_CLAMP)
    one_minus_y = Tensor(1.0 - y)
    ll = T.add(T.mul(target, T.log(pc)),
               T.mul(one_minus_y, T.log(T.sub(Tensor(np.ones_like(y)), pc))))
    bce = T.scale(T.tmean(ll), -1.0)

    axes = (0, 2, 3) if logits.ndim == 4 else tuple(range(logits.ndim - 1))
    inter = T.sum_axes(T.mul(prob, target), axes)
    sums = T.add(T.sum_axes(prob, axes), T.sum_axes(target, axes))
    eps = Tensor(np.full(inter.shape, DICE_EPS, dtype=logits.data.dtype))
    ones = Tensor(np.ones(inter.shape, dtype=logits.data.dtype))
    dice = T.tmean(T.sub(ones, T.div(T.add(T.scale(inter, 2.0), eps), T.add(sums, eps))))

    total = T.add(T.scale(bce, 0.5), dice)
    return LossTerms(bce=bce, dice=dice, total=total)


class SGD:
    """SGD with classic momentum; L2 weight decay is folded into the gradient:

        g' = g + wd * p;  v <- mu * v + g';  p <- p - lr * v
    """

    def __init__(self, named_params, momentum=0.9, weight_decay=1e-4):
        self.named_params = list(named_params)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity = {name: np.zeros_like(p.data) for name, p in self.named_params}
        self.step_count = 0

    def step(self, lr):
        for name, p in self.named_params:
            if p.grad is None:
                raise UsageError(f"sgd_step: parameter '{name}' has no gradient")
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            v = self.velocity[name]
            v *= self.momentum
            v += g
            p.data -= lr * v
        self.step_count += 1

    def state_arrays(self):
        out = {f"optim.velocity.{name}": v for name, v in self.velocity.items()}
        out["optim.step"] = np.asarray([self.step_count], dtype=np.float64)
        return out

    def load_state_arrays(self, arrays):
        for name in self.velocity:
            key = f"optim.velocity.{name}"
            if key not in arrays:
                raise ConfigError(f"optimizer state missing '{key}'")
            if arrays[key].shape != self.velocity[name].shape:
                raise ConfigError(f"optimizer state shape mismatch on '{key}'")
            self.velocity[name][...] = arrays[key]
        if "optim.step" in arrays:
            self.step_count = int(arrays["optim.step"].reshape(-1)[0])


def lr_schedule(kind, t, total, lr0, warmup=0):
    """poly: lr0*(1 - t/T)^0.9; warmup_cosine: linear 0->lr0 over W then
    half-cosine to 0; constant: lr0."""
    if total <= 0:
        raise ConfigError("lr_schedule needs a positive total step count")
    if not 0 <= t <= total:
        raise ConfigError(f"step {t} outside [0, {total}]")
    if kind == "poly":
        return lr0 * (1.0 - t / total) ** 0.9
    if kind == "warmup_cosine":
        if t < warmup:
            return lr0 * t / warmup
        span = max(total - warmup, 1)
        return 0.5 * lr0 * (1.0 + math.cos(math.pi * (t - warmup) / span))
    if kind == "constant":
        return lr0
    raise ConfigError(f"unknown schedule '{kind}'")


# ---------------------------------------------------------------------------
# augmentation


def hflip(image, mask):
    return image[:, :, ::-1].copy(), mask[:, :, ::-1].copy()


def vflip(image, mask):
    return image[:, ::-1, :].copy(), mask[:, ::-1, :].copy()


def rot90k(image, mask, k):
    return (np.ascontiguousarray(np.rot90(image, k, axes=(1, 2))),
            np.ascontiguousarray(np.rot90(mask, k, axes=(1, 2))))


def augment(image, mask, rng):
    """Random flips and k*90 degree rotation applied identically to image
    and mask; the image is then standardized per channel."""
    if image.shape[1] != image.shape[2]:
        raise ConfigError("augment needs square inputs for rotation")
    if rng.random() < 0.5:
        image, mask = hflip(image, mask)
    if rng.random() < 0.5:
        image, mask = vflip(image, mask)
    k = int(rng.integers(0, 4))
    if k:
        image, mask = rot90k(image, mask, k)
    return standardize(image), mask


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainResult:
    history: list               # one record per step
    epochs: list                # one record per epoch (val metrics)
    best_val_iou: float
    best_epoch: int
    best_state: dict            # name -> array copy of the best-val model
    optimizer: SGD


def _batch_tensors(dataset, indices, seed, epoch, dtype):
    images, masks = [], []
    for i in indices:
        s = dataset[i]
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([seed, 7919, epoch, int(i)])))
        img, msk = augment(s.image, s.mask, rng)
        images.append(img)
        masks.append(msk)
    x = Tensor(np.stack(images).astype(T.DTYPES[dtype]))
    y = Tensor(np.stack(masks).astype(T.DTYPES[dtype]))
    return x, y


def train_loop(model, train_set, val_set, epochs, batch_size,
               schedule="poly", lr0=0.01, seed=0, log_path=None):
    """Seeded, deterministic, augmented training; returns history and the best-val state.

    Identical seeds and data give bitwise-identical loss traces. A non-finite
    loss aborts with the name of the first non-finite layer.
    """
    if not train_set:
        raise ConfigError("empty training set")
    if batch_size < 1 or epochs < 1:
        raise ConfigError(f"batch size {batch_size} and epochs {epochs} must both be >= 1")
    if batch_size > len(train_set):
        raise ConfigError("batch size larger than the training set")
    steps_per_epoch = math.ceil(len(train_set) / batch_size)
    total_steps = epochs * steps_per_epoch
    opt = SGD(list(model.named_parameters()))
    shuffle_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 104729])))
    dtype = model.cfg.dtype
    history, epoch_log = [], []
    best_iou, best_epoch, best_state = -1.0, -1, None
    log_file = open(log_path, "w") if log_path else None
    step = 0
    try:
        for epoch in range(epochs):
            order = shuffle_rng.permutation(len(train_set))
            model.train()
            for b in range(steps_per_epoch):
                idx = order[b * batch_size:(b + 1) * batch_size]
                x, y = _batch_tensors(train_set, idx, seed, epoch, dtype)
                lr = lr_schedule(schedule, step, total_steps, lr0)
                with T.record():
                    logits = model(x)
                    terms = seg_loss(logits, y)
                    total = terms.total.item()
                    if not math.isfinite(total):
                        layer = first_nonfinite_layer(model, x)
                        raise TrainingDiverged(
                            f"non-finite loss at step {step}; first non-finite layer: {layer}")
                    model.zero_grad()
                    T.backward(terms.total)
                opt.step(lr)
                rec = {"step": step, "epoch": epoch, "lr": lr,
                       "bce": terms.bce.item(), "dice": terms.dice.item(), "total": total}
                history.append(rec)
                if log_file:
                    log_file.write(json.dumps(rec) + "\n")
                    log_file.flush()
                step += 1
            if val_set:
                res = evaluate(model, val_set, batch_size=batch_size)
                erec = {"epoch": epoch, "val_iou": res.mean_iou, "val_f1": res.mean_f1}
                epoch_log.append(erec)
                if log_file:
                    log_file.write(json.dumps(erec) + "\n")
                    log_file.flush()
                if res.mean_iou > best_iou:
                    best_iou = res.mean_iou
                    best_epoch = epoch
                    best_state = {k: v.copy() for k, v in model.named_state().items()}
                model.train()
    finally:
        if log_file:
            log_file.close()
    if best_state is None:
        best_state = {k: v.copy() for k, v in model.named_state().items()}
    return TrainResult(history=history, epochs=epoch_log, best_val_iou=best_iou,
                       best_epoch=best_epoch, best_state=best_state, optimizer=opt)
