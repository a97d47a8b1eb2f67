"""Correctness checks the benchmark runs beside its timings.

Each check returns (ok, detail). A failed check counts as one failed
operation in the run's result, so it shows in error_rate.
"""

import dataclasses
import hashlib

import numpy as np

from muvit import accounting, data, training
from muvit import tensor as T
from muvit.model import build_model

from spans import countable, row_key, stage_of, wrapped_units

# f32 vs f64 on the same weights. An array passes when its max abs deviation
# is within REF_TOL of max(1, max |f64 value|): the untrained Base model's
# logits reach ~2e3, where f32 rounding alone gives deviations near 2e-3.
# Measured scaled deviations: logits ~3e-6, gradients ~8e-5.
REF_TOL = 1e-3
COUNTABLE_KINDS = ("conv", "transconv", "linear", "matmul")


def digest(arr):
    return hashlib.blake2b(np.ascontiguousarray(arr).tobytes(), digest_size=16).hexdigest()


def analytic_unit_macs(cfg, size, batch):
    """count_flops countable rows summed by unit key, for a batch of images."""
    out = {}
    for r in accounting.count_flops(cfg, size).rows:
        if r.kind in COUNTABLE_KINDS:
            k = row_key(r.name)
            out[k] = out.get(k, 0) + r.macs * batch
    return out


def shadow_unit_macs(model, run_forward):
    """Shadow MACs read at every unit boundary during run_forward()."""
    got = {}

    def make(path, key, fwd):
        def counted(*args, **kwargs):
            m0 = countable(counter)
            out = fwd(*args, **kwargs)
            got[key] = got.get(key, 0) + countable(counter) - m0
            return out
        return counted

    with T.count_macs() as counter, wrapped_units(model, make):
        run_forward()
    return got, counter


def stage_mac_check(model, run_forward, batch):
    """Per-unit shadow MACs must equal the count_flops rows of that unit, exactly,
    and nothing may be counted outside a unit."""
    got, counter = shadow_unit_macs(model, run_forward)
    want = analytic_unit_macs(model.cfg, model.cfg.input_size, batch)
    bad = {k: (got.get(k, 0), want.get(k, 0)) for k in set(got) | set(want)
           if got.get(k, 0) != want.get(k, 0)}
    outside = countable(counter) - sum(got.values())
    by_stage = {}
    for k, v in got.items():
        by_stage[stage_of(k)] = by_stage.get(stage_of(k), 0) + v
    detail = {"units": len(want), "total": countable(counter), "mismatch": bad,
              "outside_units": outside, "by_stage": by_stage}
    return (not bad and outside == 0), detail


def f64_twin(model):
    """A float64 model carrying exactly the float32 model's parameters and buffers."""
    twin = build_model(dataclasses.replace(model.cfg, dtype="f64"), seed=0)
    state = model.named_state()
    for name, v in twin.named_state().items():
        src = state[name]
        dst = v.data if isinstance(v, T.Tensor) else v
        dst[...] = (src.data if isinstance(src, T.Tensor) else src).astype(np.float64)
    if model.training:
        twin.train()
    else:
        twin.eval()
    return twin


def deviation(pairs):
    """(max abs deviation, max deviation scaled by max(1, max |reference|))
    over (f32 array, f64 reference array) pairs."""
    abs_err = scaled = 0.0
    for lo, hi in pairs:
        e = float(np.max(np.abs(np.asarray(lo, dtype=np.float64) - hi)))
        abs_err = max(abs_err, e)
        scaled = max(scaled, e / max(1.0, float(np.max(np.abs(hi)))))
    ok = bool(np.isfinite(abs_err)) and scaled <= REF_TOL
    return ok, {"max_abs_err": abs_err, "max_scaled_err": scaled, "tol": REF_TOL}


def ref_logits(model, images):
    """f32 vs f64 logits on images, in eval mode."""
    model.eval()
    lo = model(T.Tensor(images.astype(np.float32))).data
    twin = f64_twin(model)
    hi = twin(T.Tensor(images.astype(np.float64))).data
    return deviation([(lo, hi)])


def _loss_and_grads(model, images, masks, dtype):
    model.train()
    model.zero_grad()
    with T.record():
        logits = model(T.Tensor(images.astype(dtype)))
        loss = training.seg_loss(logits, T.Tensor(masks.astype(dtype))).total
        T.backward(loss)
    return loss.item(), {n: p.grad for n, p in model.named_parameters()}


def ref_train(model, images, masks):
    """f32 vs f64 training loss and every parameter gradient, same weights and batch."""
    twin = f64_twin(model)
    l32, g32 = _loss_and_grads(model, images, masks, np.float32)
    l64, g64 = _loss_and_grads(twin, images, masks, np.float64)
    return deviation([(l32, l64)] + [(g, g64[name]) for name, g in g32.items()])


def probe_batch(n, size):
    """Fixed images and masks, independent of the workload seed."""
    samples = data.synth_dataset(0, n, size)
    images = np.stack([data.standardize(s.image) for s in samples])
    masks = np.stack([s.mask for s in samples])
    return images, masks
