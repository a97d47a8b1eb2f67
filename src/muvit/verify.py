"""Gradient verification suites: ops, composite blocks, whole model.

Everything runs in f64 with central differences (eps 1e-4) against the
recorded-tape gradients; the pass threshold is a 1e-5 max relative error.
An op or block check draws its inputs from a generator seeded with the
suite's seed, then any extra values the check needs, then a small random
projection that turns the output into the scalar that gradcheck
differentiates (_projected). OP_CHECKS and BLOCK_CHECKS list the checks.
"""

from functools import partial

import numpy as np

from . import tensor as T
from .blocks import (ConvUtrBlock, DecoderBlock, LKLGLBlock, SkipAdapter,
                     TransformerBlock)
from .model import ModelConfig, build_model
from .nn import initialize
from .tensor import Tensor, backward, gradcheck, record
from .training import seg_loss

THRESHOLD = 1e-5


def _f64(rng, shape, scale=1.0):
    return Tensor(rng.standard_normal(shape) * scale, dtype="f64")


def _affine(rng, c):
    """A norm's gamma near 1 and beta near 0."""
    gamma = _f64(rng, (c,), 0.3)
    gamma.data += 1.0
    return [gamma, _f64(rng, (c,), 0.2)]


def _projected(rng, fn, inputs):
    """gradcheck of fn's output projected onto a random tensor of its shape,
    drawn from rng after the inputs; one forward of fn gives the shape."""
    shape = fn(*inputs).shape
    # small projection keeps |f| ~ 0.1 so f64 cancellation noise stays far
    # below the 1e-8 denominator floor of the relative-error formula
    r = Tensor(rng.standard_normal(shape) * (0.1 / np.sqrt(np.prod(shape))))
    return gradcheck(lambda *ts: T.tsum(T.mul(fn(*ts), r)), inputs)


def _conv(**kw):
    return lambda *ts: T.conv2d(*ts, **kw)


def _batchnorm_eval(rng):
    inputs = [_f64(rng, (2, 3, 4, 4))] + _affine(rng, 3)
    running = (rng.standard_normal(3) * 0.5, 1.0 + rng.random(3))
    return (lambda x, g, b: T.batchnorm2d(x, g, b, running, training=False)), inputs


def _relu(rng):
    x = _f64(rng, (3, 7))
    x.data += np.sign(x.data) * 0.05      # keep clear of the kink
    return T.relu, [x]


# (name, make): make(rng) returns (fn, inputs) for _projected
OP_CHECKS = [
    ("linear", lambda rng: (T.linear, [_f64(rng, (4, 4)), _f64(rng, (3, 4), 0.5),
                                       _f64(rng, (3,), 0.1)])),
    ("conv2d", lambda rng: (_conv(pad=1), [_f64(rng, (1, 2, 5, 5)), _f64(rng, (3, 2, 3, 3), 0.5),
                                           _f64(rng, (3,), 0.1)])),
    ("conv2d_depthwise", lambda rng: (_conv(pad=1, groups=3),
                                      [_f64(rng, (2, 3, 6, 6)), _f64(rng, (3, 1, 3, 3), 0.5)])),
    ("conv2d_depthwise_k9", lambda rng: (_conv(pad=4, groups=3),
                                         [_f64(rng, (2, 3, 4, 4)), _f64(rng, (3, 1, 9, 9), 0.2)])),
    ("conv2d_depthwise_tiles", lambda rng: (_conv(pad=1, groups=2),
                                            [_f64(rng, (2, 2, 5, 19)), _f64(rng, (2, 1, 3, 3), 0.5),
                                             _f64(rng, (2,), 0.1)])),
    ("conv2d_strided", lambda rng: (_conv(stride=2, groups=2),
                                    [_f64(rng, (1, 2, 6, 6)), _f64(rng, (2, 1, 2, 2), 0.5)])),
    ("conv2d_dense_valid", lambda rng: (_conv(), [_f64(rng, (2, 3, 5, 7)),
                                                  _f64(rng, (2, 3, 3, 3), 0.5)])),
    ("conv_transpose2d", lambda rng: (T.conv_transpose2d,
                                      [_f64(rng, (1, 3, 4, 4)), _f64(rng, (3, 2, 2, 2), 0.5),
                                       _f64(rng, (2,), 0.1)])),
    ("maxpool", lambda rng: (lambda x: T.pool2d(x, "max", 2), [_f64(rng, (2, 2, 4, 4))])),
    ("avgpool", lambda rng: (lambda x: T.pool2d(x, "avg", 2), [_f64(rng, (2, 2, 4, 4))])),
    ("bilinear_upsample", lambda rng: (T.bilinear_upsample, [_f64(rng, (1, 2, 3, 3))])),
    ("batchnorm2d_train", lambda rng: (lambda x, g, b: T.batchnorm2d(x, g, b, None, training=True),
                                       [_f64(rng, (2, 3, 4, 4))] + _affine(rng, 3))),
    ("batchnorm2d_eval", _batchnorm_eval),
    ("layernorm", lambda rng: (T.layernorm, [_f64(rng, (2, 4, 6))] + _affine(rng, 6))),
    ("gelu", lambda rng: (T.gelu, [_f64(rng, (3, 7))])),
    ("sigmoid", lambda rng: (T.sigmoid, [_f64(rng, (3, 7))])),
    ("relu", _relu),
    ("softmax", lambda rng: (T.softmax, [_f64(rng, (2, 5, 6))])),
    ("mhsa", lambda rng: (lambda x, *ws: T.mhsa(x, 2, *ws),
                          [_f64(rng, (1, 4, 8))] + [_f64(rng, (8, 8), 0.3) for _ in range(4)])),
    ("concat", lambda rng: (lambda a, b: T.concat([a, b], axis=1),
                            [_f64(rng, (2, 2, 3, 3)), _f64(rng, (2, 3, 3, 3))])),
]

# (name, constructor, input shape); each block is checked in f64, train mode
BLOCK_CHECKS = [
    ("conv_utr_block", partial(ConvUtrBlock, 4, 3), (2, 4, 6, 6)),
    ("lklgl_block", partial(LKLGLBlock, 8, 2, kernel=9, pool_ratio=2, ffn_ratio=2), (1, 8, 4, 4)),
    ("lklgl_block_literal", partial(LKLGLBlock, 8, 2, kernel=3, pool_ratio=2, ffn_ratio=2,
                                    literal_order=True), (1, 8, 4, 4)),
    ("vit_block", partial(TransformerBlock, 8, 2, ffn_ratio=2), (1, 4, 8)),
    ("skip_adapter", partial(SkipAdapter, 3, 4, pool=True), (1, 3, 6, 6)),
    ("decoder_block", partial(DecoderBlock, 4, 0, 3), (1, 4, 3, 3)),
]


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


def _op_check(make, seed):
    rng = np.random.default_rng(seed)
    return _projected(rng, *make(rng))


def _block_check(make, in_shape, seed):
    """Gradcheck an initialized block w.r.t. its input and every parameter."""
    rng = np.random.default_rng(seed)
    block = make().astype("f64")
    initialize(block, seed)
    _decalibrate(block)
    block.train()
    x = _f64(rng, in_shape)
    params = [t for _, t in block.named_parameters()]
    return _projected(rng, lambda *_: block(x), [x] + params)


def _seg_loss_check(seed):
    rng = np.random.default_rng(seed)
    logits = _f64(rng, (1, 1, 6, 6), 1.5)
    target = Tensor((rng.random((1, 1, 6, 6)) > 0.5).astype(np.float64))
    return gradcheck(lambda l: seg_loss(l, target).total, [logits])


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
    rng = np.random.default_rng(seed)
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
    probe_rng = np.random.default_rng(seed + 1)
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
        return ([(name, _op_check(make, seed)) for name, make in OP_CHECKS]
                + [("seg_loss", _seg_loss_check(seed))])
    if scope == "blocks":
        return [(name, _block_check(make, shape, seed)) for name, make, shape in BLOCK_CHECKS]
    if scope == "model":
        return [("model_sampled", model_check(seed))]
    raise ValueError(f"unknown gradcheck scope '{scope}'")
