"""Gradient verification suites: ops, composite blocks, whole model.

Everything runs in f64 with central differences (eps 1e-4) against the
recorded-tape gradients; the pass threshold is a 1e-5 max relative error.
"""

import numpy as np

from . import tensor as T
from .blocks import (ConvUtrBlock, DecoderBlock, LKLGLBlock, SkipAdapter,
                     TransformerBlock)
from .model import ModelConfig, build_model
from .nn import initialize
from .tensor import Tensor, backward, gradcheck, record
from .training import seg_loss

THRESHOLD = 1e-5


def _rng(seed):
    return np.random.default_rng(seed)


def _proj(rng, shape):
    # small projection keeps |f| ~ 0.1 so f64 cancellation noise stays far
    # below the 1e-8 denominator floor of the relative-error formula
    r = Tensor(rng.standard_normal(shape) * (0.1 / np.sqrt(np.prod(shape))))
    return lambda t: T.tsum(T.mul(t, r))


def _f64(rng, shape, scale=1.0):
    return Tensor(rng.standard_normal(shape) * scale, dtype="f64")


def op_checks(seed=0):
    """(name, closure) pairs; each closure returns the max relative error."""
    checks = []

    def check(name):
        def deco(fn):
            checks.append((name, fn))
            return fn
        return deco

    @check("linear")
    def _(seed=seed):
        rng = _rng(seed)
        x = _f64(rng, (4, 4))
        w = _f64(rng, (3, 4), 0.5)
        b = _f64(rng, (3,), 0.1)
        p = _proj(rng, (4, 3))
        return gradcheck(lambda x_, w_, b_: p(T.linear(x_, w_, b_)), [x, w, b])

    @check("conv2d")
    def _(seed=seed):
        rng = _rng(seed)
        x = _f64(rng, (1, 2, 5, 5))
        w = _f64(rng, (3, 2, 3, 3), 0.5)
        b = _f64(rng, (3,), 0.1)
        p = _proj(rng, (1, 3, 5, 5))
        return gradcheck(lambda x_, w_, b_: p(T.conv2d(x_, w_, b_, stride=1, pad=1)), [x, w, b])

    @check("conv2d_depthwise")
    def _(seed=seed):
        rng = _rng(seed)
        x = _f64(rng, (2, 3, 6, 6))
        w = _f64(rng, (3, 1, 3, 3), 0.5)
        p = _proj(rng, (2, 3, 6, 6))
        return gradcheck(lambda x_, w_: p(T.conv2d(x_, w_, pad=1, groups=3)), [x, w])

    @check("conv2d_depthwise_k9")
    def _(seed=seed):
        rng = _rng(seed)
        x = _f64(rng, (2, 3, 4, 4))
        w = _f64(rng, (3, 1, 9, 9), 0.2)
        p = _proj(rng, (2, 3, 4, 4))
        return gradcheck(lambda x_, w_: p(T.conv2d(x_, w_, pad=4, groups=3)), [x, w])

    @check("conv2d_depthwise_tiles")
    def _(seed=seed):
        rng = _rng(seed)
        x = _f64(rng, (2, 2, 5, 19))
        w = _f64(rng, (2, 1, 3, 3), 0.5)
        b = _f64(rng, (2,), 0.1)
        p = _proj(rng, (2, 2, 5, 19))
        return gradcheck(lambda x_, w_, b_: p(T.conv2d(x_, w_, b_, pad=1, groups=2)), [x, w, b])

    @check("conv2d_strided")
    def _(seed=seed):
        rng = _rng(seed)
        x = _f64(rng, (1, 2, 6, 6))
        w = _f64(rng, (2, 1, 2, 2), 0.5)
        p = _proj(rng, (1, 2, 3, 3))
        return gradcheck(lambda x_, w_: p(T.conv2d(x_, w_, stride=2, groups=2)), [x, w])

    @check("conv2d_dense_strided")
    def _(seed=seed):
        rng = _rng(seed)
        x = _f64(rng, (2, 2, 7, 5))
        w = _f64(rng, (3, 2, 3, 3), 0.5)
        b = _f64(rng, (3,), 0.1)
        p = _proj(rng, (2, 3, 4, 3))
        return gradcheck(lambda x_, w_, b_: p(T.conv2d(x_, w_, b_, stride=2, pad=1)), [x, w, b])

    @check("conv2d_dense_valid")
    def _(seed=seed):
        rng = _rng(seed)
        x = _f64(rng, (2, 3, 5, 7))
        w = _f64(rng, (2, 3, 3, 3), 0.5)
        p = _proj(rng, (2, 2, 3, 5))
        return gradcheck(lambda x_, w_: p(T.conv2d(x_, w_)), [x, w])

    @check("conv_transpose2d")
    def _(seed=seed):
        rng = _rng(seed)
        x = _f64(rng, (1, 3, 4, 4))
        w = _f64(rng, (3, 2, 2, 2), 0.5)
        b = _f64(rng, (2,), 0.1)
        p = _proj(rng, (1, 2, 8, 8))
        return gradcheck(lambda x_, w_, b_: p(T.conv_transpose2d(x_, w_, b_)), [x, w, b])

    @check("maxpool")
    def _(seed=seed):
        rng = _rng(seed)
        x = _f64(rng, (2, 2, 4, 4))
        p = _proj(rng, (2, 2, 2, 2))
        return gradcheck(lambda x_: p(T.pool2d(x_, "max", 2)), [x])

    @check("avgpool")
    def _(seed=seed):
        rng = _rng(seed)
        x = _f64(rng, (2, 2, 4, 4))
        p = _proj(rng, (2, 2, 2, 2))
        return gradcheck(lambda x_: p(T.pool2d(x_, "avg", 2)), [x])

    @check("bilinear_upsample")
    def _(seed=seed):
        rng = _rng(seed)
        x = _f64(rng, (1, 2, 3, 3))
        p = _proj(rng, (1, 2, 6, 6))
        return gradcheck(lambda x_: p(T.bilinear_upsample(x_, 2)), [x])

    @check("batchnorm2d_train")
    def _(seed=seed):
        rng = _rng(seed)
        x = _f64(rng, (2, 3, 4, 4))
        g = _f64(rng, (3,), 0.3)
        g.data += 1.0
        b = _f64(rng, (3,), 0.2)
        p = _proj(rng, (2, 3, 4, 4))
        return gradcheck(lambda x_, g_, b_: p(T.batchnorm2d(x_, g_, b_, None, training=True)),
                         [x, g, b])

    @check("batchnorm2d_eval")
    def _(seed=seed):
        rng = _rng(seed)
        x = _f64(rng, (2, 3, 4, 4))
        g = _f64(rng, (3,), 0.3)
        g.data += 1.0
        b = _f64(rng, (3,), 0.2)
        running = (rng.standard_normal(3) * 0.5, 1.0 + rng.random(3))
        p = _proj(rng, (2, 3, 4, 4))
        return gradcheck(lambda x_, g_, b_: p(T.batchnorm2d(x_, g_, b_, running, training=False)),
                         [x, g, b])

    @check("layernorm")
    def _(seed=seed):
        rng = _rng(seed)
        x = _f64(rng, (2, 4, 6))
        g = _f64(rng, (6,), 0.3)
        g.data += 1.0
        b = _f64(rng, (6,), 0.2)
        p = _proj(rng, (2, 4, 6))
        return gradcheck(lambda x_, g_, b_: p(T.layernorm(x_, g_, b_)), [x, g, b])

    @check("gelu")
    def _(seed=seed):
        rng = _rng(seed)
        x = _f64(rng, (3, 7))
        p = _proj(rng, (3, 7))
        return gradcheck(lambda x_: p(T.gelu(x_)), [x])

    @check("sigmoid")
    def _(seed=seed):
        rng = _rng(seed)
        x = _f64(rng, (3, 7))
        p = _proj(rng, (3, 7))
        return gradcheck(lambda x_: p(T.sigmoid(x_)), [x])

    @check("relu")
    def _(seed=seed):
        rng = _rng(seed)
        x = _f64(rng, (3, 7))
        x.data += np.sign(x.data) * 0.05      # keep clear of the kink
        p = _proj(rng, (3, 7))
        return gradcheck(lambda x_: p(T.relu(x_)), [x])

    @check("softmax")
    def _(seed=seed):
        rng = _rng(seed)
        x = _f64(rng, (2, 5, 6))
        p = _proj(rng, (2, 5, 6))
        return gradcheck(lambda x_: p(T.softmax(x_)), [x])

    @check("mhsa")
    def _(seed=seed):
        rng = _rng(seed)
        x = _f64(rng, (1, 4, 8))
        ws = [_f64(rng, (8, 8), 0.3) for _ in range(4)]
        p = _proj(rng, (1, 4, 8))
        return gradcheck(lambda x_, a, b, c, d: p(T.mhsa(x_, 2, a, b, c, d)), [x] + ws)

    @check("seg_loss")
    def _(seed=seed):
        rng = _rng(seed)
        logits = _f64(rng, (1, 1, 6, 6), 1.5)
        target = Tensor((rng.random((1, 1, 6, 6)) > 0.5).astype(np.float64))
        return gradcheck(lambda l: seg_loss(l, target).total, [logits])

    return checks


def _decalibrate(module):
    """Move parameters to a non-degenerate evaluation point for gradcheck:
    tiny attention/FFN init gives ~1e-7 partial derivatives that central
    differences cannot certify, and zero BN betas park ReLU right on its
    kink."""
    for name, par in module.named_parameters():
        if getattr(par, "init_kind", "") == "linear":
            par.data *= 5.0
        elif name.endswith("beta"):
            par.data += 0.05


def _block_check(make_block, in_shape, seed):
    """Gradcheck an initialized block w.r.t. its input and every parameter."""
    rng = _rng(seed)
    block = make_block()
    initialize(block, seed)
    _decalibrate(block)
    block.train()
    x = _f64(rng, in_shape)
    out_shape = block(x).shape
    p = _proj(rng, out_shape)
    params = [t for _, t in block.named_parameters()]

    def fn(*_tensors):
        return p(block(x))

    return gradcheck(fn, [x] + params)


def block_checks(seed=0):
    checks = [
        ("conv_utr_block",
         lambda: _block_check(lambda: ConvUtrBlock(4, 3).astype("f64"), (2, 4, 6, 6), seed)),
        ("lklgl_block",
         lambda: _block_check(lambda: LKLGLBlock(8, 2, kernel=9, pool_ratio=2,
                                                 ffn_ratio=2).astype("f64"), (1, 8, 4, 4), seed)),
        ("lklgl_block_literal",
         lambda: _block_check(lambda: LKLGLBlock(8, 2, kernel=3, pool_ratio=2, ffn_ratio=2,
                                                 literal_order=True).astype("f64"),
                              (1, 8, 4, 4), seed)),
        ("vit_block",
         lambda: _block_check(lambda: TransformerBlock(8, 2, ffn_ratio=2).astype("f64"),
                              (1, 4, 8), seed)),
        ("skip_adapter",
         lambda: _block_check(lambda: SkipAdapter(3, 4, pool=True).astype("f64"),
                              (1, 3, 6, 6), seed)),
        ("decoder_block",
         lambda: _block_check(lambda: DecoderBlock(4, 0, 3).astype("f64"), (1, 4, 3, 3), seed)),
    ]
    return checks


def model_check(seed=0):
    """End-to-end directional gradcheck of a tiny f64 model.

    Per-element central differences are ill-posed for a deep ReLU/maxpool
    network (kink crossings give O(1) errors on single elements), so the
    whole gradient is verified through six random directional derivatives:
    (f(theta + eps*v) - f(theta - eps*v)) / 2eps against grad . v.

    Input size 64 is the smallest non-degenerate geometry: at 32 the
    bottleneck batch norm sees a single element per channel, its output
    collapses to beta, and every downstream ReLU sits exactly on its kink.
    """
    rng = _rng(seed)
    cfg = ModelConfig.for_variant("base", input_size=64, dtype="f64")
    model = build_model(cfg, seed=seed)
    model.train()
    x = Tensor(rng.random((1, 3, 64, 64)), dtype="f64")
    target = Tensor((rng.random((1, 1, 64, 64)) > 0.7).astype(np.float64))

    def loss_value():
        return seg_loss(model(x), target).total

    model.zero_grad()
    with record():
        backward(loss_value())
    params = [p for _, p in model.named_parameters()]
    eps = 1e-5
    worst = 0.0
    probe_rng = _rng(seed + 1)
    with T.no_grad():
        for _ in range(6):
            vs = [probe_rng.standard_normal(p.shape) for p in params]
            norm = np.sqrt(sum(float((v * v).sum()) for v in vs))
            vs = [v / norm for v in vs]
            gdotv = sum(float((p.grad * v).sum()) for p, v in zip(params, vs)
                        if p.grad is not None)
            for p, v in zip(params, vs):
                p.data += eps * v
            fp = loss_value().item()
            for p, v in zip(params, vs):
                p.data -= 2 * eps * v
            fm = loss_value().item()
            for p, v in zip(params, vs):
                p.data += eps * v
            num = (fp - fm) / (2 * eps)
            rel = abs(gdotv - num) / max(1e-8, abs(gdotv) + abs(num))
            worst = max(worst, rel)
    return worst


def run_suite(scope, seed=0):
    """Returns [(name, max relative error)] for the requested scope."""
    if scope == "ops":
        return [(name, fn()) for name, fn in op_checks(seed)]
    if scope == "blocks":
        return [(name, fn()) for name, fn in block_checks(seed)]
    if scope == "model":
        return [("model_sampled", model_check(seed))]
    raise ValueError(f"unknown gradcheck scope '{scope}'")
