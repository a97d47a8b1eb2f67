"""Minimal layer system on top of the tensor core.

Modules own named parameters (trainable) and buffers (running statistics).
Dotted parameter names are stable across runs and are the checkpoint
contract. Initialization is seeded per-tensor, so adding or removing one
layer never shifts the random draws of another.
"""

import hashlib

import numpy as np

from . import tensor as T
from .tensor import ConfigError, Tensor


class Parameter(Tensor):
    """Trainable tensor; registered automatically when set on a Module."""

    def __init__(self, data, dtype=None):
        super().__init__(data, requires_grad=True, dtype=dtype)


class Module:
    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._params[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name, array):
        self._buffers[name] = array
        object.__setattr__(self, name, array)

    def named_parameters(self, prefix=""):
        for name, p in self._params.items():
            yield prefix + name, p
        for name, m in self._modules.items():
            yield from m.named_parameters(prefix + name + ".")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix=""):
        for name, b in self._buffers.items():
            yield prefix + name, b
        for name, m in self._modules.items():
            yield from m.named_buffers(prefix + name + ".")

    def named_state(self):
        """The live arrays of the parameters then the buffers, each under its
        stable dotted name."""
        out = {name: p.data for name, p in self.named_parameters()}
        for name, b in self.named_buffers():
            if name in out:
                raise ConfigError(f"duplicate state name '{name}'")
            out[name] = b
        return out

    def modules(self):
        yield self
        for m in self._modules.values():
            yield from m.modules()

    def train(self):
        for m in self.modules():
            object.__setattr__(m, "training", True)

    def eval(self):
        for m in self.modules():
            object.__setattr__(m, "training", False)

    def zero_grad(self):
        for p in self.parameters():
            p.grad = None

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class ModuleList(Module):
    def __init__(self, mods=()):
        super().__init__()
        self._list = []
        for m in mods:
            self.append(m)

    def append(self, m):
        self._modules[str(len(self._list))] = m
        self._list.append(m)

    def __iter__(self):
        return iter(self._list)

    def __len__(self):
        return len(self._list)

    def __getitem__(self, i):
        return self._list[i]


# ---------------------------------------------------------------------------
# seeded initialization


def _tensor_rng(seed, name):
    digest = hashlib.sha256(name.encode()).digest()
    key = int.from_bytes(digest[:8], "little")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, key])))


def _trunc_normal(rng, shape, std):
    out = rng.standard_normal(shape)
    # resample outside +-2 std
    for _ in range(16):
        bad = np.abs(out) > 2.0
        if not bad.any():
            break
        out[bad] = rng.standard_normal(int(bad.sum()))
    return np.clip(out, -2.0, 2.0) * std


def initialize(model, seed):
    """He-normal convs, truncated-normal (std 0.02) linears, unit norms,
    zero biases and positional embeddings. Deterministic per (seed, name)."""
    for name, p in model.named_parameters():
        rng = _tensor_rng(seed, name)
        kind = getattr(p, "init_kind", "zero")
        if kind == "conv":
            fan_in = int(np.prod(p.shape[1:]))
            p.data[...] = (rng.standard_normal(p.shape) * np.sqrt(2.0 / fan_in)).astype(p.data.dtype)
        elif kind == "conv_transpose":
            fan_in = p.shape[0] * p.shape[2] * p.shape[3]
            p.data[...] = (rng.standard_normal(p.shape) * np.sqrt(2.0 / fan_in)).astype(p.data.dtype)
        elif kind == "linear":
            p.data[...] = _trunc_normal(rng, p.shape, 0.02).astype(p.data.dtype)
        elif kind == "one":
            p.data[...] = 1.0
        elif kind == "zero":
            p.data[...] = 0.0
        else:
            raise ConfigError(f"unknown init kind '{kind}' on {name}")


def _param(shape, dtype, kind):
    p = Parameter(np.zeros(shape, dtype=T.DTYPES[dtype]))
    p.init_kind = kind
    return p


# ---------------------------------------------------------------------------
# layers


class Conv2d(Module):
    def __init__(self, cin, cout, k, stride=1, pad=0, groups=1, bias=True, dtype="f32"):
        super().__init__()
        if groups != 1 and not groups == cin == cout:
            raise ConfigError(f"Conv2d: groups={groups} on {cin}->{cout} channels is neither "
                              "dense nor depthwise")
        self.stride, self.pad, self.groups = stride, pad, groups
        self.weight = _param((cout, cin // groups, k, k), dtype, "conv")
        self.bias = _param((cout,), dtype, "zero") if bias else None

    def forward(self, x):
        return T.conv2d(x, self.weight, self.bias, self.stride, self.pad, self.groups)


class ConvTranspose2d(Module):
    """Transposed conv whose stride equals its kernel size."""

    def __init__(self, cin, cout, k=2, bias=True, dtype="f32"):
        super().__init__()
        self.weight = _param((cin, cout, k, k), dtype, "conv_transpose")
        self.bias = _param((cout,), dtype, "zero") if bias else None

    def forward(self, x):
        return T.conv_transpose2d(x, self.weight, self.bias)


class BatchNorm2d(Module):
    def __init__(self, c, eps=1e-5, momentum=0.1, dtype="f32"):
        super().__init__()
        self.eps, self.momentum = eps, momentum
        self.gamma = _param((c,), dtype, "one")
        self.beta = _param((c,), dtype, "zero")
        self.register_buffer("running_mean", np.zeros(c, dtype=T.DTYPES[dtype]))
        self.register_buffer("running_var", np.ones(c, dtype=T.DTYPES[dtype]))

    def forward(self, x):
        return T.batchnorm2d(x, self.gamma, self.beta,
                             (self.running_mean, self.running_var),
                             self.eps, self.momentum, self.training)


class LayerNorm(Module):
    """Layer norm over the last dim."""

    def __init__(self, d, eps=1e-6, dtype="f32"):
        super().__init__()
        self.eps = eps
        self.gamma = _param((d,), dtype, "one")
        self.beta = _param((d,), dtype, "zero")

    def forward(self, x):
        return T.layernorm(x, self.gamma, self.beta, self.eps)


class ChannelLayerNorm(Module):
    """Layer norm across channels at each spatial position of an NCHW map."""

    def __init__(self, c, eps=1e-6, dtype="f32"):
        super().__init__()
        self.eps = eps
        self.gamma = _param((c,), dtype, "one")
        self.beta = _param((c,), dtype, "zero")

    def forward(self, x):
        n, c, h, w = x.shape
        t = T.transpose(x, (0, 2, 3, 1))
        t = T.layernorm(t, self.gamma, self.beta, self.eps)
        return T.transpose(t, (0, 3, 1, 2))


class Linear(Module):
    def __init__(self, din, dout, bias=True, dtype="f32"):
        super().__init__()
        self.weight = _param((dout, din), dtype, "linear")
        self.bias = _param((dout,), dtype, "zero") if bias else None

    def forward(self, x):
        return T.linear(x, self.weight, self.bias)


class MultiHeadSelfAttention(Module):
    def __init__(self, d, heads, dtype="f32"):
        super().__init__()
        if d % heads:
            raise ConfigError(f"attention dim {d} not divisible by {heads} heads")
        self.heads = heads
        self.wq = Linear(d, d, dtype=dtype)
        self.wk = Linear(d, d, dtype=dtype)
        self.wv = Linear(d, d, dtype=dtype)
        self.wo = Linear(d, d, dtype=dtype)

    def forward(self, x):
        return T.mhsa(x, self.heads,
                      self.wq.weight, self.wk.weight, self.wv.weight, self.wo.weight,
                      self.wq.bias, self.wk.bias, self.wv.bias, self.wo.bias)


class FeedForward(Module):
    """Position-wise two-layer MLP with GELU, applied to [..., d] tokens."""

    def __init__(self, d, ratio, dtype="f32"):
        super().__init__()
        self.fc1 = Linear(d, d * ratio, dtype=dtype)
        self.fc2 = Linear(d * ratio, d, dtype=dtype)

    def forward(self, x):
        return self.fc2(T.gelu(self.fc1(x)))
