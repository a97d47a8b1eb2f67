"""Dense NCHW tensor core with reverse-mode autodiff on a recorded op tape.

Forward operators cover exactly what the segmentation network needs:
grouped/depthwise conv, transposed conv, pooling, bilinear upsampling,
batch/layer norm, GELU/ReLU/sigmoid/softmax, linear, multi-head attention,
plus the elementwise/reduction glue used by the loss. Every op that records
onto the active Graph knows how to push gradients back to its inputs;
``backward(loss)`` replays the tape in reverse.

Dense convs (every conv that is neither pointwise nor depthwise) run on a
flat padded buffer: the input is zero-padded once into a channel-major
[Ci, N*Hp*Wp] array, and each kernel tap (i, j) is one GEMM against that
buffer shifted by i*Wp + j, accumulated into the output; windows that wrap
into the next row or image land only in the margin that is cropped away.
The backward pass places d(out) on the same grid and runs the same shifted
GEMMs for the weight gradient and, scattered back, for the input gradient.
The tape keeps the padded buffer, about the size of the input, and no
im2col copy.

All reductions use numpy's fixed sequential kernels, so forward passes are
bitwise reproducible for identical inputs.
"""

import math
from contextlib import contextmanager

import numpy as np
from scipy.special import erf

DTYPES = {"f32": np.float32, "f64": np.float64}
_DTYPE_NAMES = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}


class ConfigError(ValueError):
    """Shape/group/kernel mismatch detected while wiring an operation."""


class UsageError(RuntimeError):
    """Operation called outside its contract (e.g. backward on a non-scalar)."""


class VerificationError(RuntimeError):
    """A numeric verification (gradcheck, finiteness) failed."""


class Tensor:
    """N-d value array (NCHW for feature maps) with an optional gradient slot."""

    def __init__(self, data, requires_grad=False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        if dtype is not None and not isinstance(dtype, np.dtype):
            dtype = DTYPES.get(dtype, dtype)
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return _DTYPE_NAMES[self.data.dtype]

    def item(self):
        if self.data.size != 1:
            raise UsageError("item() requires a scalar tensor")
        return float(self.data.reshape(()))

    def detach(self):
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self):
        self.grad = None

    def astype(self, dtype):
        return Tensor(self.data.astype(DTYPES.get(dtype, dtype)), self.requires_grad)

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.dtype}, requires_grad={self.requires_grad})"

    # operator sugar used by loss assembly and tests
    def __add__(self, other):
        return add(self, _as_tensor(other, self))

    def __radd__(self, other):
        return add(_as_tensor(other, self), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other, self))

    def __rsub__(self, other):
        return sub(_as_tensor(other, self), self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, other)
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return scale(self, -1.0)

    def sum(self):
        return tsum(self)

    def mean(self):
        return tmean(self)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        return transpose(self, axes)


def _as_tensor(x, like):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


# ---------------------------------------------------------------------------
# recorded computation graph


class Node:
    """One recorded op: inputs, output, and the closure that maps d(out) to d(inputs)."""

    __slots__ = ("op", "inputs", "output", "bwd")

    def __init__(self, op, inputs, output, bwd):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.bwd = bwd


class Graph:
    """Op tape in execution order; execution order is a topological order."""

    def __init__(self):
        self.nodes = []

    def __len__(self):
        return len(self.nodes)


_GRAPH = None
_MACS = None
_FINITE_CHECKS = False


@contextmanager
def record():
    """Record ops into a fresh Graph and yield it.

    backward() must be called inside the same block: it reads the active
    graph, and tensors keep no reference to the graph that produced them, so
    the tape is freed by reference counting once the block exits.
    """
    global _GRAPH
    prev = _GRAPH
    _GRAPH = g = Graph()
    try:
        yield g
    finally:
        _GRAPH = prev


@contextmanager
def no_grad():
    global _GRAPH
    prev = _GRAPH
    _GRAPH = None
    try:
        yield
    finally:
        _GRAPH = prev


def active_graph():
    return _GRAPH


class MacCounter:
    """Shadow multiply-accumulate counter fed by conv/linear/matmul forwards."""

    def __init__(self):
        self.total = 0
        self.by_op = {}

    def add(self, op, macs):
        self.total += macs
        self.by_op[op] = self.by_op.get(op, 0) + macs


@contextmanager
def count_macs():
    """Count the multiply-accumulates actually performed by matrix-product ops."""
    global _MACS
    prev = _MACS
    _MACS = c = MacCounter()
    try:
        yield c
    finally:
        _MACS = prev


def _tally(op, macs):
    if _MACS is not None:
        _MACS.add(op, int(macs))


@contextmanager
def finite_checks(enabled=True):
    """Verify every op output is finite; raises VerificationError on NaN/Inf."""
    global _FINITE_CHECKS
    prev = _FINITE_CHECKS
    _FINITE_CHECKS = enabled
    try:
        yield
    finally:
        _FINITE_CHECKS = prev


def _out(op, inputs, data, bwd):
    if _FINITE_CHECKS and not np.all(np.isfinite(data)):
        raise VerificationError(f"non-finite values produced by op '{op}'")
    t = Tensor(data)
    g = _GRAPH
    if g is not None and any(isinstance(i, Tensor) and i.requires_grad for i in inputs):
        t.requires_grad = True
        g.nodes.append(Node(op, tuple(i for i in inputs if isinstance(i, Tensor)), t, bwd))
    return t


def backward(loss):
    """Reverse-mode accumulation into every requires_grad leaf reachable from loss.

    Must run inside the record() block that recorded the forward: loss has to
    be the output of a node on the active graph. Repeated calls accumulate
    into .grad unless grads are cleared.
    """
    if not isinstance(loss, Tensor) or loss.data.size != 1:
        raise UsageError("backward() needs a scalar loss tensor")
    g = _GRAPH
    produced = {id(n.output) for n in g.nodes} if g is not None else set()
    if id(loss) not in produced:
        raise UsageError("loss is not an output of the active graph; "
                         "run the forward and backward() inside one record() block")
    flows = {id(loss): [loss, np.ones_like(loss.data)]}
    for node in reversed(g.nodes):
        entry = flows.pop(id(node.output), None)
        if entry is None:
            continue
        grads = node.bwd(entry[1])
        for t, gi in zip(node.inputs, grads):
            if gi is None or not t.requires_grad:
                continue
            cur = flows.get(id(t))
            if cur is None:
                flows[id(t)] = [t, gi]
            else:
                cur[1] = cur[1] + gi
    for tid, (t, arr) in flows.items():
        if tid not in produced and t.requires_grad:
            t.grad = arr.copy() if t.grad is None else t.grad + arr


def _sum_to_shape(g, shape):
    """Reverse numpy broadcasting: reduce g down to `shape`."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise / structural ops


def add(a, b):
    data = a.data + b.data
    return _out("add", (a, b), data,
                lambda g: (_sum_to_shape(g, a.shape), _sum_to_shape(g, b.shape)))


def sub(a, b):
    data = a.data - b.data
    return _out("sub", (a, b), data,
                lambda g: (_sum_to_shape(g, a.shape), _sum_to_shape(-g, b.shape)))


def mul(a, b):
    data = a.data * b.data
    return _out("mul", (a, b), data,
                lambda g: (_sum_to_shape(g * b.data, a.shape), _sum_to_shape(g * a.data, b.shape)))


def scale(a, c):
    c = float(c)
    return _out("scale", (a,), a.data * c, lambda g: (g * c,))


def div(a, b):
    data = a.data / b.data

    def bwd(g):
        ga = _sum_to_shape(g / b.data, a.shape)
        gb = _sum_to_shape(-g * a.data / (b.data * b.data), b.shape)
        return ga, gb

    return _out("div", (a, b), data, bwd)


def tsum(a):
    return _out("sum", (a,), np.asarray(a.data.sum()), lambda g: (np.broadcast_to(g, a.shape).astype(a.data.dtype, copy=True),))


def tmean(a):
    n = a.data.size
    return _out("mean", (a,), np.asarray(a.data.mean()),
                lambda g: (np.broadcast_to(g / n, a.shape).astype(a.data.dtype, copy=True),))


def sum_axes(a, axes):
    """Sum over the given axes (keepdims=False)."""
    axes = tuple(sorted(axes))
    data = a.data.sum(axis=axes)

    def bwd(g):
        ge = g
        for ax in axes:
            ge = np.expand_dims(ge, ax)
        return (np.broadcast_to(ge, a.shape).astype(a.data.dtype, copy=True),)

    return _out("sum_axes", (a,), data, bwd)


def log(a):
    return _out("log", (a,), np.log(a.data), lambda g: (g / a.data,))


def clip(a, lo, hi):
    data = np.clip(a.data, lo, hi)
    mask = (a.data >= lo) & (a.data <= hi)
    return _out("clip", (a,), data, lambda g: (g * mask,))


def reshape(a, shape):
    shape = tuple(shape)
    return _out("reshape", (a,), a.data.reshape(shape), lambda g: (g.reshape(a.shape),))


def transpose(a, axes):
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _out("transpose", (a,), a.data.transpose(axes),
                lambda g: (g.transpose(inv),))


def concat(tensors, axis):
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return _out("concat", tuple(tensors), data, bwd)


def matmul(a, b):
    data = np.matmul(a.data, b.data)
    _tally("matmul", data.size // data.shape[-1] * a.data.shape[-1] * data.shape[-1])

    def bwd(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _sum_to_shape(ga, a.shape), _sum_to_shape(gb, b.shape)

    return _out("matmul", (a, b), data, bwd)


# ---------------------------------------------------------------------------
# activations


def relu(x):
    mask = x.data > 0
    return _out("relu", (x,), x.data * mask, lambda g: (g * mask,))


def sigmoid(x):
    d = x.data
    s = np.where(d >= 0, 1.0 / (1.0 + np.exp(-np.abs(d))), np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d))))
    s = s.astype(d.dtype)
    return _out("sigmoid", (x,), s, lambda g: (g * s * (1.0 - s),))


_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu(x):
    """Exact-erf GELU: x * Phi(x)."""
    d = x.data
    cdf = 0.5 * (1.0 + erf(d / _SQRT2))
    out = d * cdf

    def bwd(g):
        pdf = _INV_SQRT_2PI * np.exp(-0.5 * d * d)
        return (g * (cdf + d * pdf),)

    return _out("gelu", (x,), out.astype(d.dtype), bwd)


def softmax(x):
    """Softmax along the last dim, stabilized by max subtraction."""
    d = x.data
    e = np.exp(d - d.max(axis=-1, keepdims=True))
    s = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        return (s * (g - (g * s).sum(axis=-1, keepdims=True)),)

    return _out("softmax", (x,), s, bwd)


_ACTIVATIONS = {"gelu": gelu, "relu": relu, "sigmoid": sigmoid, "softmax_lastdim": softmax}


def activation(x, kind):
    try:
        return _ACTIVATIONS[kind](x)
    except KeyError:
        raise ConfigError(f"unknown activation kind '{kind}'") from None


# ---------------------------------------------------------------------------
# linear / attention


def linear(x, w, b=None):
    """Affine map on the last dim: y = x @ w.T + b, w shaped [dout, din]."""
    if w.shape[1] != x.shape[-1]:
        raise ConfigError(f"linear: input dim {x.shape[-1]} != weight din {w.shape[1]}")
    data = np.matmul(x.data, w.data.T)
    if b is not None:
        data = data + b.data
    _tally("linear", (x.data.size // x.shape[-1]) * w.shape[0] * w.shape[1])

    def bwd(g):
        gx = np.matmul(g, w.data)
        g2 = g.reshape(-1, w.shape[0])
        x2 = x.data.reshape(-1, w.shape[1])
        gw = g2.T @ x2
        gb = g2.sum(axis=0) if b is not None else None
        return (gx, gw) if b is None else (gx, gw, gb)

    inputs = (x, w) if b is None else (x, w, b)
    return _out("linear", inputs, data, bwd)


def mhsa(x, heads, wq, wk, wv, wo, bq=None, bk=None, bv=None, bo=None):
    """Scaled dot-product multi-head self-attention with output projection.

    x: [N, T, d]; each projection weight is [d, d]. Composed from recorded
    primitives, so gradients come from the tape.
    """
    n, t, d = x.shape
    if d % heads != 0:
        raise ConfigError(f"mhsa: dim {d} not divisible by {heads} heads")
    dh = d // heads

    def split(z):
        z = reshape(z, (n, t, heads, dh))
        return transpose(z, (0, 2, 1, 3))

    q = split(linear(x, wq, bq))
    k = split(linear(x, wk, bk))
    v = split(linear(x, wv, bv))
    att = scale(matmul(q, transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dh))
    att = softmax(att)
    out = matmul(att, v)
    out = reshape(transpose(out, (0, 2, 1, 3)), (n, t, d))
    return linear(out, wo, bo)


# ---------------------------------------------------------------------------
# convolution family


def _conv_out_size(size, k, stride, pad):
    num = size + 2 * pad - k
    if num < 0 or num % stride != 0:
        raise ConfigError(f"conv: size {size} with k={k} stride={stride} pad={pad} "
                          "gives a non-integral output size")
    return num // stride + 1


def _to_grid(a, hp, wp, top, step):
    """[N, C, h, w] -> channel-major flat buffer [C, N*hp*wp] of zeros holding
    a[n, c] from row and column `top` on, every `step` rows and columns."""
    n, c, h, w = a.shape
    buf = np.zeros((c, n, hp, wp), dtype=a.dtype)
    buf[:, :, top:top + (h - 1) * step + 1:step, top:top + (w - 1) * step + 1:step] = \
        a.transpose(1, 0, 2, 3)
    return buf.reshape(c, n * hp * wp)


def _from_grid(buf, n, hp, wp, top, step, h, w):
    """Inverse of _to_grid: read [N, C, h, w] back out of the flat buffer."""
    grid = buf.reshape(buf.shape[0], n, hp, wp)
    return np.ascontiguousarray(
        grid[:, :, top:top + (h - 1) * step + 1:step, top:top + (w - 1) * step + 1:step]
        .transpose(1, 0, 2, 3))


def _dense_fwd(xf, w, groups, wp):
    """Stride-1 grouped correlation on the flat padded buffer, one GEMM per tap.

    out[:, q] = sum_ij w[:, :, i, j] @ xf[:, q + i*wp + j] for q < span; the
    positions whose window wraps into the next row or image lie in the margin
    that the caller crops away.
    """
    co, cig, kh, kw = w.shape
    cog = co // groups
    m = xf.shape[1]
    span = m - (kh - 1) * wp - (kw - 1)
    out = np.zeros((co, m), dtype=xf.dtype)
    tmp = np.empty((cog, span), dtype=xf.dtype)
    for gi in range(groups):
        o, c = slice(gi * cog, (gi + 1) * cog), slice(gi * cig, (gi + 1) * cig)
        for i in range(kh):
            for j in range(kw):
                off = i * wp + j
                np.matmul(w[o, :, i, j], xf[c, off:off + span], out=tmp)
                out[o, :span] += tmp
    return out


def _dense_bwd(gs, xf, w, groups, wp, need_x):
    """Gradients of _dense_fwd: gs is d(out) on the same flat grid, zero in
    the margin. Returns (d(w), d(xf) or None)."""
    co, cig, kh, kw = w.shape
    cog = co // groups
    m = xf.shape[1]
    span = m - (kh - 1) * wp - (kw - 1)
    gw = np.empty((kh, kw, co, cig), dtype=xf.dtype)
    gxf = np.zeros((cig * groups, m), dtype=xf.dtype) if need_x else None
    tmp = np.empty((cig, span), dtype=xf.dtype)
    for gi in range(groups):
        o, c = slice(gi * cog, (gi + 1) * cog), slice(gi * cig, (gi + 1) * cig)
        go = gs[o, :span]
        for i in range(kh):
            for j in range(kw):
                off = i * wp + j
                gw[i, j, o] = go @ xf[c, off:off + span].T
                if need_x:
                    np.matmul(w[o, :, i, j].T, go, out=tmp)
                    gxf[c, off:off + span] += tmp
    return np.ascontiguousarray(gw.transpose(2, 3, 0, 1)), gxf


def _dwconv_forward(x, w, stride, pad):
    """Depthwise conv as k^2 shifted-slice multiply-adds (no im2col buffer)."""
    n, c, h, wdt = x.shape
    kh, kw = w.shape[2], w.shape[3]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wdt + 2 * pad - kw) // stride + 1
    out = np.zeros((n, c, ho, wo), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            out += w[:, 0, i, j][None, :, None, None] * \
                xp[:, :, i:i + (ho - 1) * stride + 1:stride, j:j + (wo - 1) * stride + 1:stride]
    return out


def _dwconv_w_grad(x, g, kh, kw, stride, pad):
    n, c = x.shape[0], x.shape[1]
    ho, wo = g.shape[2], g.shape[3]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))) if pad else x
    gw = np.empty((c, 1, kh, kw), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            xs = xp[:, :, i:i + (ho - 1) * stride + 1:stride, j:j + (wo - 1) * stride + 1:stride]
            gw[:, 0, i, j] = np.einsum("nchw,nchw->c", g, xs)
    return gw


def _dwconv_x_grad(g, w, x_shape, stride, pad):
    n, c, h, wdt = x_shape
    kh, kw = w.shape[2], w.shape[3]
    ho, wo = g.shape[2], g.shape[3]
    gxp = np.zeros((n, c, h + 2 * pad, wdt + 2 * pad), dtype=g.dtype)
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i:i + (ho - 1) * stride + 1:stride, j:j + (wo - 1) * stride + 1:stride] += \
                w[:, 0, i, j][None, :, None, None] * g
    if pad:
        return np.ascontiguousarray(gxp[:, :, pad:pad + h, pad:pad + wdt])
    return gxp


def conv2d(x, w, b=None, stride=1, pad=0, groups=1):
    """Grouped 2-d cross-correlation.

    x: [N, Ci, H, W]; w: [Co, Ci/g, kh, kw]; groups=Ci gives a depthwise conv,
    1x1 kernels give a pointwise conv. Every other conv takes the dense path:
    x is padded once into the flat buffer xf = [Ci, N*Hp*Wp], and each tap
    (i, j) adds w[:, :, i, j] @ xf[:, off:off + L] to the output, with
    off = i*Wp + j and L = N*Hp*Wp - (kh-1)*Wp - (kw-1); the result is cropped
    to [:Ho, :Wo] (stride s keeps every s-th position of the stride-1 result),
    and groups run one after another through the same loop. The backward pass
    keeps xf, places d(out) on the same grid, takes d(w) per tap as
    d(out) @ xf[:, off:off + L].T and scatter-adds w[:, :, i, j].T @ d(out)
    into a padded d(x) that is cropped like the input.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ConfigError("conv2d expects 4-d input and weight")
    n, ci, h, wdt = x.shape
    co, cig, kh, kw = w.shape
    if ci % groups or co % groups:
        raise ConfigError(f"conv2d: channels ({ci}->{co}) not divisible by groups={groups}")
    if cig != ci // groups:
        raise ConfigError(f"conv2d: weight expects {cig} channels/group, input gives {ci // groups}")
    if b is not None and b.shape != (co,):
        raise ConfigError(f"conv2d: bias shape {b.shape} != ({co},)")
    ho = _conv_out_size(h, kh, stride, pad)
    wo = _conv_out_size(wdt, kw, stride, pad)
    pointwise = kh == 1 and kw == 1 and stride == 1 and pad == 0 and groups == 1
    depthwise = groups == ci and co == ci and cig == 1
    if pointwise:
        x3 = x.data.reshape(n, ci, h * wdt)
        w2 = w.data.reshape(co, ci)
        out = np.matmul(w2, x3).reshape(n, co, h, wdt)
    elif depthwise:
        out = _dwconv_forward(x.data, w.data, stride, pad)
    else:
        hp, wp = h + 2 * pad, wdt + 2 * pad
        xf = _to_grid(x.data, hp, wp, pad, 1)
        out = _from_grid(_dense_fwd(xf, w.data, groups, wp), n, hp, wp, 0, stride, ho, wo)
    if b is not None:
        out = out + b.data[:, None, None]
    _tally("conv2d", n * ho * wo * co * cig * kh * kw)

    def bwd(g):
        if pointwise:
            g3 = np.ascontiguousarray(g).reshape(n, co, h * wdt)
            x3 = x.data.reshape(n, ci, h * wdt)
            gw = np.tensordot(g3, x3, axes=([0, 2], [0, 2])).reshape(w.shape)
            gx = np.matmul(w.data.reshape(co, ci).T, g3).reshape(x.shape) \
                if x.requires_grad else None
        elif depthwise:
            gc = np.ascontiguousarray(g)
            gw = _dwconv_w_grad(x.data, gc, kh, kw, stride, pad)
            gx = _dwconv_x_grad(gc, w.data, x.shape, stride, pad) if x.requires_grad else None
        else:
            gs = _to_grid(g, hp, wp, 0, stride)
            gw, gxf = _dense_bwd(gs, xf, w.data, groups, wp, x.requires_grad)
            gx = _from_grid(gxf, n, hp, wp, pad, 1, h, wdt) if x.requires_grad else None
        if b is None:
            return gx, gw
        return gx, gw, g.sum(axis=(0, 2, 3))

    inputs = (x, w) if b is None else (x, w, b)
    return _out("conv2d", inputs, out, bwd)


def conv_transpose2d(x, w, b=None, stride=2):
    """Transposed conv (gradient of conv2d w.r.t. its input).

    x: [N, Ci, H, W]; w: [Ci, Co, kh, kw]; output spatial size (H-1)*stride + kh.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ConfigError("conv_transpose2d expects 4-d input and weight")
    n, ci, h, wdt = x.shape
    wci, co, kh, kw = w.shape
    if wci != ci:
        raise ConfigError(f"conv_transpose2d: input channels {ci} != weight in-channels {wci}")
    if b is not None and b.shape != (co,):
        raise ConfigError(f"conv_transpose2d: bias shape {b.shape} != ({co},)")
    ho = (h - 1) * stride + kh
    wo = (wdt - 1) * stride + kw
    out = np.zeros((n, co, ho, wo), dtype=x.data.dtype)
    for a in range(kh):
        for c in range(kw):
            out[:, :, a:a + (h - 1) * stride + 1:stride, c:c + (wdt - 1) * stride + 1:stride] += \
                np.einsum("ncij,cd->ndij", x.data, w.data[:, :, a, c])
    if b is not None:
        out += b.data[:, None, None]
    _tally("conv_transpose2d", n * h * wdt * kh * kw * ci * co)

    def bwd(g):
        gx = np.zeros_like(x.data)
        gw = np.zeros_like(w.data)
        for a in range(kh):
            for c in range(kw):
                gsl = g[:, :, a:a + (h - 1) * stride + 1:stride, c:c + (wdt - 1) * stride + 1:stride]
                gx += np.einsum("ndij,cd->ncij", gsl, w.data[:, :, a, c])
                gw[:, :, a, c] = np.einsum("ncij,ndij->cd", x.data, gsl)
        if b is None:
            return gx, gw
        return gx, gw, g.sum(axis=(0, 2, 3))

    inputs = (x, w) if b is None else (x, w, b)
    return _out("conv_transpose2d", inputs, out, bwd)


def pool2d(x, kind, k, stride=None):
    """Non-overlapping max/avg pooling (k == stride); H, W must divide by k.

    Max-pool backward routes the gradient to the first (row-major) maximal
    element of each window.
    """
    stride = k if stride is None else stride
    if stride != k:
        raise ConfigError("pool2d supports k == stride only")
    n, c, h, w = x.shape
    if h % k or w % k:
        raise ConfigError(f"pool2d: spatial dims {h}x{w} not divisible by {k}")
    ho, wo = h // k, w // k
    r = x.data.reshape(n, c, ho, k, wo, k)
    if kind == "avg":
        out = r.mean(axis=(3, 5))

        def bwd(g):
            gx = np.broadcast_to(g[:, :, :, None, :, None] / (k * k), (n, c, ho, k, wo, k))
            return (gx.reshape(n, c, h, w).astype(x.data.dtype, copy=True),)

        return _out("avgpool", (x,), out, bwd)
    if kind == "max":
        flat = r.transpose(0, 1, 2, 4, 3, 5).reshape(n, c, ho, wo, k * k)
        idx = flat.argmax(axis=-1)
        out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]

        def bwd(g):
            gf = np.zeros_like(flat)
            np.put_along_axis(gf, idx[..., None], g[..., None], axis=-1)
            gx = gf.reshape(n, c, ho, wo, k, k).transpose(0, 1, 2, 4, 3, 5)
            return (np.ascontiguousarray(gx).reshape(n, c, h, w),)

        return _out("maxpool", (x,), out, bwd)
    raise ConfigError(f"unknown pool kind '{kind}'")


_INTERP_CACHE = {}


def _interp_matrix(n_in, n_out, dtype):
    """Align-corners linear interpolation matrix [n_out, n_in]."""
    key = (n_in, n_out, np.dtype(dtype))
    mat = _INTERP_CACHE.get(key)
    if mat is not None:
        return mat
    a = np.zeros((n_out, n_in), dtype=dtype)
    if n_in == 1:
        a[:, 0] = 1.0
    else:
        pos = np.arange(n_out, dtype=np.float64) * (n_in - 1) / (n_out - 1)
        lo = np.minimum(pos.astype(np.int64), n_in - 2)
        frac = pos - lo
        rows = np.arange(n_out)
        a[rows, lo] = (1.0 - frac).astype(dtype)
        a[rows, lo + 1] += frac.astype(dtype)
    _INTERP_CACHE[key] = a
    return a


def bilinear_upsample(x, scale=2):
    """Align-corners bilinear upsampling by an integer factor >= 2."""
    if not isinstance(scale, int) or scale < 2:
        raise ConfigError("bilinear_upsample needs an integer scale >= 2")
    n, c, h, w = x.shape
    ho, wo = h * scale, w * scale
    ah = _interp_matrix(h, ho, x.data.dtype)
    aw = _interp_matrix(w, wo, x.data.dtype)
    x3 = x.data.reshape(n * c, h, w)
    out = np.matmul(np.matmul(ah, x3), aw.T).reshape(n, c, ho, wo)
    _tally("bilinear", n * c * (ho * w * h + ho * wo * w))

    def bwd(g):
        g3 = g.reshape(n * c, ho, wo)
        gx = np.matmul(np.matmul(ah.T, g3), aw)
        return (gx.reshape(n, c, h, w),)

    return _out("bilinear", (x,), out, bwd)


# ---------------------------------------------------------------------------
# normalization


def batchnorm2d(x, gamma, beta, running, eps=1e-5, momentum=0.1, training=True):
    """Per-channel batch norm over N*H*W.

    `running` is a (mean, var) pair of raw arrays updated in place in train
    mode; eval mode normalizes with them instead of batch statistics.
    """
    n, c, h, w = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ConfigError(f"batchnorm2d: affine params sized {gamma.shape} for {c} channels")
    d = x.data
    if training:
        mu = d.mean(axis=(0, 2, 3))
        var = d.var(axis=(0, 2, 3))
        if running is not None:
            rm, rv = running
            rm *= 1.0 - momentum
            rm += momentum * mu
            rv *= 1.0 - momentum
            rv += momentum * var
    else:
        if running is None:
            raise ConfigError("batchnorm2d eval mode needs running statistics")
        mu, var = running[0], running[1]
    invstd = 1.0 / np.sqrt(var + eps)
    xhat = (d - mu[:, None, None]) * invstd[:, None, None]
    out = gamma.data[:, None, None] * xhat + beta.data[:, None, None]
    m = n * h * w

    def bwd(g):
        dgamma = (g * xhat).sum(axis=(0, 2, 3))
        dbeta = g.sum(axis=(0, 2, 3))
        if training:
            gx = (gamma.data * invstd / m)[:, None, None] * (
                m * g - xhat * dgamma[:, None, None] - dbeta[:, None, None])
        else:
            gx = g * (gamma.data * invstd)[:, None, None]
        return gx.astype(d.dtype, copy=False), dgamma, dbeta

    return _out("batchnorm2d", (x, gamma, beta), out.astype(d.dtype, copy=False), bwd)


def layernorm(x, gamma, beta, eps=1e-6):
    """Normalization over the last dim with affine parameters of that size."""
    dlast = x.shape[-1]
    if gamma.shape != (dlast,) or beta.shape != (dlast,):
        raise ConfigError(f"layernorm: affine params sized {gamma.shape} for dim {dlast}")
    d = x.data
    mu = d.mean(axis=-1, keepdims=True)
    var = d.var(axis=-1, keepdims=True)
    invstd = 1.0 / np.sqrt(var + eps)
    xhat = (d - mu) * invstd
    out = gamma.data * xhat + beta.data

    def bwd(g):
        dgamma = (g * xhat).reshape(-1, dlast).sum(axis=0)
        dbeta = g.reshape(-1, dlast).sum(axis=0)
        gh = g * gamma.data
        gx = invstd * (gh - gh.mean(axis=-1, keepdims=True)
                       - xhat * (gh * xhat).mean(axis=-1, keepdims=True))
        return gx.astype(d.dtype, copy=False), dgamma, dbeta

    return _out("layernorm", (x, gamma, beta), out.astype(d.dtype, copy=False), bwd)


# ---------------------------------------------------------------------------
# gradient verification


def gradcheck(fn, inputs, eps=1e-4):
    """Max relative error between analytic and central-difference gradients.

    fn maps the input tensors to a scalar Tensor. Inputs must be f64; the
    relative error is |analytic - numeric| / max(1e-8, |analytic| + |numeric|),
    maximised over every element of every input.
    """
    for t in inputs:
        if t.data.dtype != np.float64:
            raise UsageError("gradcheck requires f64 inputs")
        t.grad = None
        t.requires_grad = True
    with record():
        out = fn(*inputs)
        if out.data.size != 1:
            raise UsageError("gradcheck target must be scalar")
        backward(out)
    if not np.isfinite(out.data).all():
        raise VerificationError("gradcheck: non-finite forward value")
    worst = 0.0
    with no_grad():
        for t in inputs:
            analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
            if not np.isfinite(analytic).all():
                raise VerificationError("gradcheck: non-finite analytic gradient")
            flat = t.data.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                fp = fn(*inputs).item()
                flat[i] = orig - eps
                fm = fn(*inputs).item()
                flat[i] = orig
                num = (fp - fm) / (2.0 * eps)
                if not math.isfinite(num):
                    raise VerificationError("gradcheck: non-finite numeric gradient")
                ana = float(analytic.reshape(-1)[i])
                rel = abs(ana - num) / max(1e-8, abs(ana) + abs(num))
                if rel > worst:
                    worst = rel
    return worst
