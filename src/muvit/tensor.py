"""Dense NCHW tensor core with reverse-mode autodiff on a recorded op tape.

Forward operators cover exactly what the segmentation network needs:
dense, pointwise and depthwise conv, transposed conv with stride equal to
its kernel, pooling, bilinear upsampling, batch/layer norm,
GELU/ReLU/sigmoid/softmax, linear, multi-head attention, plus the
elementwise/reduction glue used by the loss. Every op that records
onto the active Graph knows how to push gradients back to its inputs;
``backward(loss)`` consumes the tape in reverse: it pops each node, runs its
closure and drops it, so what the forward stored dies during the sweep, as
soon as no later node needs it. A tape serves one backward call.

The tape holds keys, not activations. _out stamps each recorded output with
a serial key, and its Node keeps the op name, that key, the backward closure
and the inputs: the Tensor itself for a leaf (a parameter, a batch input, a
tensor from an earlier graph), a _Ref stand-in (key, shape, requires_grad)
for an input produced on the same graph. Each closure captures only what its
gradient rule reads: the input arrays of mul, div, matmul, linear, log,
conv_transpose2d and the pointwise, depthwise and dense convs; xhat of the
two norms; the masks of relu and clip; the outputs of sigmoid and softmax;
dGELU/dx; the winner offsets of max-pool; and no more than shapes and dtypes
for add, sub, reshape, the sums and means and avg-pool. So
an activation that no closure reads, such as the GELU output that BatchNorm
normalizes, is freed as soon as the forward drops it.

Dense convs (groups=1, neither pointwise nor depthwise, which takes in the
1-channel conv) run at stride 1 only, as every dense conv of the network
does; strided downsampling is depthwise. They compute on a virtual flat
padded grid: the input zero-padded into a channel-major [Ci, N*Hp*Wp] array,
where each kernel tap (i, j) is one GEMM against the grid shifted by
i*Wp + j, accumulated into the output; windows that wrap into the next row or image
land only in the margin that is never read. The columns are cut into equal
blocks of at most 2^17 / max(Co, Ci), so that a block of the input, the
output and the per-tap product stay in L2 cache across the taps; each output
still sums its taps in row-major order, so the f32 result is bitwise that of
one whole-span GEMM per tap. The grid is never made: each block's window of
it is copied, straight from the unpadded array, into a block-sized staging
buffer, the taps are summed in a block-sized accumulator and the block's
valid columns are written into the [N, Co, Ho, Wo] result. The backward pass
stages d(out) the same way, behind (kh-1)*Wp + (kw-1) leading zeros: d(w)
takes the per-tap GEMMs over the same blocks, with the input window restaged
from the input array, and d(x) is the same blocked forward run on that grid
with the flipped, transposed kernel, written into [N, Ci, H, W]. The tape
keeps the input array, and no padded or im2col copy.

Depthwise convs run as banded GEMMs on width tiles: the input is zero-padded
once into channel-major tiles [C, Hp, N, nb, b+kw-1], each covering
b = min(16, Wo1) columns of the stride-1 output, neighbouring tiles
overlapping by kw-1 columns, and kernel row i becomes a per-channel banded
Toeplitz matrix [b+kw-1, b]. The forward is kh batched GEMMs over channels,
one per kernel row, accumulated into the output. The backward takes d(w)
from the diagonal sums of tiles^T @ d(out), with the tiles rebuilt from the
input, the only array the tape keeps. d(x) follows the rule of every conv
here: it is the conv's own forward kernel run on d(out) with the kernel
flipped in both axes, as a full correlation. So it is _dw_fwd at stride 1 on
the stride-1 d(out) grid, zero between the strided positions, padded by
k-1-pad rows and columns, or cropped by pad-(k-1) where that is negative.

GELU keeps its exact-erf form x * Phi(x). In f32, Phi comes from the
single-region Numerical Recipes `erfcc` approximation of erfc (fractional
error below 1.2e-7), evaluated on |x| and reflected by the sign of x with
arithmetic, over 64K-element chunks; when recorded, the same pass stores
dGELU/dx, so the backward pass is one multiply. f64 GELU calls math.erf on
each element. BatchNorm takes its statistics from contiguous reductions on
the [N, C, H*W] view, bitwise equal to mean/var over axes (0, 2, 3). Max-pool is
a running np.maximum over the k*k strided window views; when recorded, it
also keeps one small unsigned offset per window, and its backward sends
d(out) to that offset, the first row-major maximum of the window.

All reductions use numpy's fixed sequential kernels, so forward passes are
bitwise reproducible for identical inputs.

Threads. BLAS is the only source of threads: every kernel here runs its
serial loop, so results are bitwise at a fixed BLAS thread count.
"""

import itertools
import math
from contextlib import contextmanager

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

DTYPES = {"f32": np.float32, "f64": np.float64}
_DTYPE_NAMES = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}


class ConfigError(ValueError):
    """Shape/group/kernel mismatch detected while wiring an operation."""


class UsageError(RuntimeError):
    """Operation called outside its contract (e.g. backward on a non-scalar)."""


class VerificationError(RuntimeError):
    """A numeric verification (gradcheck, finiteness) failed."""


class Tensor:
    """N-d value array (NCHW for feature maps) with an optional gradient slot.

    `_key` is the serial that _out stamps on a recorded output; it stays None
    for leaves and for unrecorded results.
    """

    _key = None

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

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.dtype}, requires_grad={self.requires_grad})"


# ---------------------------------------------------------------------------
# recorded computation graph


class _Ref:
    """Stand-in on the tape for an input produced on the same graph: its
    producer's key, plus the shape and requires_grad that readers of the
    tape (the backward sweep, tracers) ask for, without pinning its data."""

    __slots__ = ("key", "shape", "requires_grad")

    def __init__(self, t):
        self.key = t._key
        self.shape = t.shape
        self.requires_grad = t.requires_grad


class Node:
    """One recorded op: its inputs, the key of its output, and the closure
    that maps d(out) to d(inputs).

    `inputs` holds the Tensor itself for a leaf (an input not produced on
    this graph: parameters, batch inputs, tensors from an earlier graph) and
    a _Ref for an input produced on this graph; both expose .shape. The node
    holds no output Tensor, so an activation lives on only if some closure
    captured its array, and only until backward pops the last node whose
    closure holds it.
    """

    __slots__ = ("op", "inputs", "key", "bwd")

    def __init__(self, op, inputs, key, bwd):
        self.op = op
        self.inputs = inputs
        self.key = key
        self.bwd = bwd


class Graph:
    """Op tape in execution order, which is a topological order, the set of
    keys of the outputs recorded on it, and whether backward consumed it."""

    def __init__(self):
        self.nodes = []
        self.keys = set()
        self.consumed = False


_SERIAL = itertools.count(1)
_GRAPH = None
_MACS = None


@contextmanager
def record():
    """Record ops into a fresh Graph and yield it.

    backward() must be called inside the same block, once: it reads the
    active graph and consumes its tape, and a second call raises UsageError.
    Ops run after it in the same block are not recorded, as under no_grad.
    Tensors keep no reference to the graph that produced them, so whatever
    is left of the tape is freed by reference counting once the block exits.
    Until backward runs, the tape pins only leaf Tensors and the arrays that
    backward closures read (see Node); an intermediate that no closure reads
    is freed as soon as the forward drops it.
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


def _recorded(inputs):
    """Whether _out will record an op on these inputs: a graph is active,
    backward has not consumed it yet, and some input needs a gradient."""
    return (_GRAPH is not None and not _GRAPH.consumed
            and any(isinstance(i, Tensor) and i.requires_grad for i in inputs))


def _out(op, inputs, data, bwd):
    t = Tensor(data)
    g = _GRAPH
    if _recorded(inputs):
        t.requires_grad = True
        t._key = next(_SERIAL)
        keys = g.keys
        refs = tuple(_Ref(i) if i._key in keys else i for i in inputs if isinstance(i, Tensor))
        g.nodes.append(Node(op, refs, t._key, bwd))
        keys.add(t._key)
    return t


def backward(loss):
    """Reverse-mode accumulation into every requires_grad leaf reachable from loss.

    Must run inside the record() block that recorded the forward: loss has to
    be the output of a node on the active graph. Calls on successive tapes
    accumulate into .grad unless grads are cleared.

    The sweep consumes the tape: it pops the nodes in reverse order and drops
    each one, with the arrays its closure holds, once the closure has run.
    The gradient of a _Ref input flows by its key to the node that produced
    it, that of a leaf by the Tensor itself; contributions add in the order
    the sweep meets them, and each node's d(out) is dropped once its closure
    has run. A second call on the same tape raises UsageError before it
    touches any .grad.
    """
    if not isinstance(loss, Tensor) or loss.data.size != 1:
        raise UsageError("backward() needs a scalar loss tensor")
    g = _GRAPH
    if g is None or loss._key not in g.keys:
        raise UsageError("loss is not an output of the active graph; "
                         "run the forward and backward() inside one record() block")
    if g.consumed:
        raise UsageError("backward() already consumed this tape; record the "
                         "forward again in a new record() block")
    g.consumed = True
    flows = {loss._key: np.ones_like(loss.data)}
    leaves = {}
    nodes = g.nodes
    while nodes:
        node = nodes.pop()
        gout = flows.pop(node.key, None)
        if gout is None:
            continue
        grads = node.bwd(gout)
        del gout
        for t, gi in zip(node.inputs, grads):
            if gi is None or not t.requires_grad:
                continue
            if isinstance(t, _Ref):
                cur = flows.get(t.key)
                flows[t.key] = gi if cur is None else cur + gi
            else:
                cur = leaves.get(id(t))
                leaves[id(t)] = (t, gi) if cur is None else (t, cur[1] + gi)
    for t, arr in leaves.values():
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
    sa, sb = a.shape, b.shape
    return _out("add", (a, b), a.data + b.data,
                lambda g: (_sum_to_shape(g, sa), _sum_to_shape(g, sb)))


def sub(a, b):
    sa, sb = a.shape, b.shape
    return _out("sub", (a, b), a.data - b.data,
                lambda g: (_sum_to_shape(g, sa), _sum_to_shape(-g, sb)))


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
    shape, dtype = a.shape, a.data.dtype
    return _out("sum", (a,), np.asarray(a.data.sum()),
                lambda g: (np.broadcast_to(g, shape).astype(dtype, copy=True),))


def tmean(a):
    n, shape, dtype = a.data.size, a.shape, a.data.dtype
    return _out("mean", (a,), np.asarray(a.data.mean()),
                lambda g: (np.broadcast_to(g / n, shape).astype(dtype, copy=True),))


def sum_axes(a, axes):
    """Sum over the given axes (keepdims=False)."""
    axes = tuple(sorted(axes))
    data = a.data.sum(axis=axes)
    shape, dtype = a.shape, a.data.dtype

    def bwd(g):
        ge = g
        for ax in axes:
            ge = np.expand_dims(ge, ax)
        return (np.broadcast_to(ge, shape).astype(dtype, copy=True),)

    return _out("sum_axes", (a,), data, bwd)


def log(a):
    return _out("log", (a,), np.log(a.data), lambda g: (g / a.data,))


def clip(a, lo, hi):
    data = np.clip(a.data, lo, hi)
    mask = (a.data >= lo) & (a.data <= hi)
    return _out("clip", (a,), data, lambda g: (g * mask,))


def reshape(a, shape):
    shape, ashape = tuple(shape), a.shape
    return _out("reshape", (a,), a.data.reshape(shape), lambda g: (g.reshape(ashape),))


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
    e = np.exp(-np.abs(d))
    s = np.where(d >= 0, 1.0 / (1.0 + e), e / (1.0 + e)).astype(d.dtype)
    return _out("sigmoid", (x,), s, lambda g: (g * s * (1.0 - s),))


_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# f64 is the dtype of gradient checks and reference runs. A Python call per
# element (about 140 ns on a 2-core Xeon VM) is slower than a vectorised erf,
# but keeps numpy the only dependency.
_erf = np.frompyfunc(math.erf, 1, 1)

# Numerical Recipes `erfcc` (Press et al., Numerical Recipes, 2nd ed., 6.2):
# for z >= 0, erfc(z) = t * exp(-z*z + sum_i c_i t^i) with t = 1 / (1 + z/2),
# fractional error below 1.2e-7 everywhere. With z = |x|/sqrt(2) the upper
# normal tail is Q(|x|) = erfc(z)/2 = t * exp(-x*x/2 + sum_i c_i t^i - ln 2),
# t = 1 / (1 + |x|/(2 sqrt 2)); the -ln 2 is folded into c_0.
_ERFCC = tuple(np.float32(c) for c in (
    -1.26551223 - math.log(2.0), 1.00002368, 0.37409196, 0.09678418, -0.18628806,
    0.27886807, -1.13520398, 1.48851587, -0.82215223, 0.17087277))
_TWO_SQRT2 = np.float32(2.0 * _SQRT2)
_GELU_CHUNK = 1 << 16


def _gelu_f32(d, need_grad):
    """f32 GELU x * Phi(x) = max(x, 0) - |x| Q(|x|) with Q from `erfcc`,
    and, if need_grad, dGELU/dx = Phi(x) + x phi(x) = 1/2 + sign(x) *
    (1/2 - Q(|x|) + |x| phi(x)). Runs over 64K-element chunks with one set
    of scratch buffers, so every intermediate stays in cache."""
    xs = d.reshape(-1)
    out = np.empty(d.shape, np.float32)
    dg = np.empty(d.shape, np.float32) if need_grad else None
    outs = out.reshape(-1)
    dgs = dg.reshape(-1) if need_grad else None
    size = xs.size
    bufs = np.empty((3, min(size, _GELU_CHUNK)), np.float32)
    for s in range(0, size, _GELU_CHUNK):
        x = xs[s:s + _GELU_CHUNK]
        o = outs[s:s + _GELU_CHUNK]
        a, t, q = bufs[:, :x.size]
        np.abs(x, out=a)
        np.add(a, _TWO_SQRT2, out=t)
        np.divide(_TWO_SQRT2, t, out=t)
        np.multiply(t, _ERFCC[9], out=q)
        for c in _ERFCC[8:0:-1]:
            q += c
            q *= t
        q += _ERFCC[0]
        np.multiply(a, a, out=o)
        o *= np.float32(-0.5)
        q += o
        if need_grad:
            dx = dgs[s:s + _GELU_CHUNK]
            np.exp(o, out=dx)
        np.exp(q, out=q)
        q *= t                                  # Q(|x|)
        if need_grad:
            dx *= a
            dx *= np.float32(_INV_SQRT_2PI)     # |x| phi(x)
            dx -= q
            dx += np.float32(0.5)
            np.copysign(dx, x, out=dx)
            dx += np.float32(0.5)
        np.maximum(x, np.float32(0.0), out=o)
        q *= a
        o -= q
    return out, dg


def gelu(x):
    """Exact-erf GELU (Hendrycks & Gimpel, 2016): x * Phi(x), Phi the
    standard normal CDF.

    f32 evaluates Phi(x) = erfc(-x/sqrt(2))/2 with the single-region
    Numerical Recipes `erfcc` approximation (fractional error of erfc below
    1.2e-7), on |x| and reflected by the sign of x, in 64K-element chunks
    (_gelu_f32); f64 calls math.erf on each element. When the op is recorded
    and x requires a gradient, the forward also stores dGELU/dx = Phi(x) +
    x phi(x), so the backward pass is one multiply; otherwise no derivative
    is computed.
    """
    d = x.data
    need_grad = _recorded((x,))
    if d.dtype == np.float32:
        out, dg = _gelu_f32(d, need_grad)
    else:
        cdf = 0.5 * (1.0 + np.asarray(_erf(d / _SQRT2), np.float64))
        out = d * cdf
        dg = cdf + d * (_INV_SQRT_2PI * np.exp(-0.5 * d * d)) if need_grad else None
    return _out("gelu", (x,), out, lambda g: (g * dg,))


def softmax(x):
    """Softmax along the last dim, stabilized by max subtraction."""
    d = x.data
    e = np.exp(d - d.max(axis=-1, keepdims=True))
    s = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        return (s * (g - (g * s).sum(axis=-1, keepdims=True)),)

    return _out("softmax", (x,), s, bwd)


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


def _stage(src, hp, wp, lo, hi, buf):
    """Window [lo, hi) of the flat grid of src = (a, top) in buf.

    The flat grid of a [N, C, h, w] is the channel-major [C, N*hp*wp] array of
    zeros holding a[n, c] from row and column `top` on of each hp x wp image;
    positions before 0 are zero too. The window is filled whole rows at a
    time, one copy per image it touches, in the front of the flat scratch
    array buf. Returns the [C, hi - lo] view whose column p - lo holds grid
    position p.
    """
    a, top = src
    n, c, h, w = a.shape
    r0, r1 = lo // wp, -(-hi // wp)
    rows = buf[:c * (r1 - r0) * wp].reshape(c, r1 - r0, wp)
    rows.fill(0)
    for img in range(max(r0, 0) // hp, (r1 - 1) // hp + 1):
        s = img * hp + top - r0
        i, j = max(0, -s), min(h, r1 - r0 - s)
        if i < j:
            rows[:, s + i:s + j, top:top + w] = a[img, :, i:j]
    return rows.reshape(c, -1)[:, lo - r0 * wp:hi - r0 * wp]


def _unstage(acc, q, hp, wp, dst):
    """Inverse of _stage for one column block: acc [C, l] holds flat grid
    positions [q, q+l); write those on the grid of dst = (out, top) into
    out [N, C, h, w]. A partial row goes one row at a time, whole rows one
    copy per image."""
    out, top = dst
    n, c, h, w = out.shape
    p, end = q, q + acc.shape[1]
    while p < end:
        row, col = divmod(p, wp)
        img, r = divmod(row, hp)
        if col or end - p < wp:
            stop = min(wp, col + end - p)
            u, v = max(col, top), min(stop, top + w)
            if 0 <= r - top < h and u < v:
                out[img, :, r - top, u - top:v - top] = acc[:, p - q + u - col:p - q + v - col]
            p += stop - col
        else:
            k = min(hp - r, (end - p) // wp)
            i, j = max(r, top), min(r + k, top + h)
            if i < j:
                rows = acc[:, p - q:p - q + k * wp].reshape(c, k, wp)
                out[img, :, i - top:j - top] = rows[:, i - r:j - r, top:top + w]
            p += k * wp


# Column blocks of the flat grid hold at most _BLOCK elements per channel
# slab (512 KB in f32), so that one block of the input, the output and the
# per-tap product stay in L2 cache across the kernel taps.
_BLOCK = 1 << 17


def _dense_blocks(w, wp, m):
    """Column blocks [(q, l)] of a dense conv on a flat grid of m columns and
    row width wp: its span = m - (kh-1)*wp - (kw-1) output columns cut into
    blocks of equal width up to _BLOCK // max(Co, Ci), the last at most a
    few columns narrower."""
    co, ci, kh, kw = w.shape
    span = m - (kh - 1) * wp - (kw - 1)
    nblocks = -(-span // (_BLOCK // max(co, ci)))
    width = -(-span // nblocks)
    return [(q, min(width, span - q)) for q in range(0, span, width)]


def _stage_size(c, length, wp):
    """Elements of a _stage buffer for windows of up to `length` positions of
    C channels: the whole rows such a window can touch."""
    return c * -(-(length + wp - 1) // wp) * wp


def _dense_fwd(w, hp, wp, src, dst, lead=0):
    """Stride-1 correlation on the flat grid of src, one GEMM per tap and
    column block; see _stage for the grid.

    With xf the grid of src behind `lead` zero columns,
    out[:, q] = sum_ij w[:, :, i, j] @ xf[:, q + i*wp + j] for q < span,
    and the positions of out on the grid of dst = (out, top) are
    written into it; those whose window wraps into the next row or image
    are never read. Each block's window of xf is staged and its taps summed
    in a block-sized accumulator, so no grid-sized array is made. Every
    output column sums its taps in row-major order whatever the
    blocking, so the result is bitwise that of one whole-span GEMM per tap.
    """
    co, ci, kh, kw = w.shape
    a = src[0]
    ext = (kh - 1) * wp + (kw - 1)
    blocks = _dense_blocks(w, wp, lead + a.shape[0] * hp * wp)
    width = blocks[0][1]
    wt = np.ascontiguousarray(w.transpose(2, 3, 0, 1))
    buf = np.empty(_stage_size(ci, width + ext, wp), dtype=a.dtype)
    acc = np.empty((co, width), dtype=a.dtype)
    tmp = np.empty((co, width), dtype=a.dtype)
    for q, l in blocks:
        xs = _stage(src, hp, wp, q - lead, q - lead + l + ext, buf)
        ac, t = acc[:, :l], tmp[:, :l]
        ac.fill(0)
        for i in range(kh):
            for j in range(kw):
                off = i * wp + j
                np.matmul(wt[i, j], xs[:, off:off + l], out=t)
                ac += t
        _unstage(ac, q, hp, wp, dst)


def _dense_wgrad(w, hp, wp, gsrc, xsrc):
    """d(w) of _dense_fwd from d(out) on the grid of gsrc and the input on
    the grid of xsrc: per column block and tap, gs[:, q:q+l] @
    xf[:, q+off:q+off+l].T accumulated over the blocks of _dense_fwd in order,
    both operands staged per block."""
    co, ci, kh, kw = w.shape
    x = xsrc[0]
    ext = (kh - 1) * wp + (kw - 1)
    gw = np.zeros((kh, kw, co, ci), dtype=x.dtype)
    blocks = _dense_blocks(w, wp, x.shape[0] * hp * wp)
    width = blocks[0][1]
    gbuf = np.empty(_stage_size(co, width, wp), dtype=gsrc[0].dtype)
    xbuf = np.empty(_stage_size(ci, width + ext, wp), dtype=x.dtype)
    tmp = np.empty((co, ci), dtype=x.dtype)
    for q, l in blocks:
        go = _stage(gsrc, hp, wp, q, q + l, gbuf)
        xs = _stage(xsrc, hp, wp, q, q + l + ext, xbuf)
        for i in range(kh):
            for j in range(kw):
                off = i * wp + j
                np.matmul(go, xs[:, off:off + l].T, out=tmp)
                gw[i, j] += tmp
    return np.ascontiguousarray(gw.transpose(2, 3, 0, 1))


_DW_TILE = 16


def _dw_tiles(x, kw, ph, pw):
    """Zero-pad x [N, C, H, W] by ph rows and pw columns once into
    channel-major width tiles [C, Hp, N, nb, b+kw-1]: tile t holds padded
    columns t*b .. t*b+b+kw-2, so neighbouring tiles overlap by kw-1 columns.
    The tile width is b = min(16, Wo1) for the stride-1 output width Wo1, and
    nb*b >= Wo1."""
    n, c, h, w = x.shape
    wo1 = w + 2 * pw - kw + 1
    b = min(_DW_TILE, wo1)
    nb = -(-wo1 // b)
    xp = np.zeros((c, h + 2 * ph, n, nb * b + kw - 1), dtype=x.dtype)
    xp[:, ph:ph + h, :, pw:pw + w] = x.transpose(1, 2, 0, 3)
    return np.ascontiguousarray(sliding_window_view(xp, b + kw - 1, axis=-1)[..., :nb * b:b, :])


def _dw_band(w, b):
    """[C, 1, kh, kw] -> banded Toeplitz matrices [C, kh, b+kw-1, b] with
    band[c, i, u, v] = w[c, 0, i, u - v] for 0 <= u - v < kw, else 0, so that
    a tile row times band[c, i] is kernel row i slid over the tile."""
    c, _, kh, kw = w.shape
    j, v = np.ogrid[:kw, :b]
    band = np.zeros((c, kh, b + kw - 1, b), dtype=w.dtype)
    band[:, :, j + v, v] = w[:, 0, :, :, None]
    return band


def _dw_fwd(x, w, stride, ph, pw):
    """Depthwise correlation of x padded by ph rows and pw columns, one
    batched GEMM over channels per kernel row: the stride-1 output is
    sum_i tiles[:, i:i+Ho1] @ band[:, i], laid out as [C, Ho1, N, nb*b];
    stride s keeps every s-th row and column of it."""
    n, c, h, wdt = x.shape
    kh, kw = w.shape[2:]
    tiles = _dw_tiles(x, kw, ph, pw)
    hp, nb, t = tiles.shape[1], tiles.shape[3], tiles.shape[4]
    b = t - kw + 1
    band = _dw_band(w, b)
    ho1, wo1 = hp - kh + 1, wdt + 2 * pw - kw + 1
    m = ho1 * n * nb
    out = np.empty((c, m, b), dtype=x.dtype)
    np.matmul(tiles[:, :ho1].reshape(c, m, t), band[:, 0], out=out)
    tmp = np.empty_like(out)
    for i in range(1, kh):
        np.matmul(tiles[:, i:i + ho1].reshape(c, m, t), band[:, i], out=tmp)
        out += tmp
    out = out.reshape(c, ho1, n, nb * b)[:, ::stride, :, :wo1:stride]
    return np.ascontiguousarray(out.transpose(2, 0, 1, 3))


def _dw_bwd(g, x, w, stride, pad, need_x):
    """Gradients of _dw_fwd as (d(w), d(x) or None).

    d(out) goes onto the stride-1 output grid g1 = [C, Ho1, N, nb*b], zero
    where the forward cropped. d(w) row i is the diagonal sums of
    tiles[:, i:i+Ho1].T @ g1; the tiles are rebuilt here instead of kept on
    the tape. d(x), as every conv's, is the forward kernel run on d(out) with
    the flipped kernel: _dw_fwd of g1 with w flipped in both kernel axes, g1
    padded by k-1-pad per axis to make it a full correlation, or cropped by
    pad-(k-1) where that is negative.
    """
    n, c, h, wdt = x.shape
    kh, kw = w.shape[2:]
    tiles = _dw_tiles(x, kw, pad, pad)
    hp, nb, t = tiles.shape[1], tiles.shape[3], tiles.shape[4]
    b = t - kw + 1
    ho1, wo1 = hp - kh + 1, wdt + 2 * pad - kw + 1
    m = ho1 * n * nb
    g1 = np.zeros((c, ho1, n, nb * b), dtype=g.dtype)
    g1[:, ::stride, :, :wo1:stride] = g.transpose(1, 2, 0, 3)
    j, v = np.ogrid[:kw, :b]
    gw = np.empty((c, 1, kh, kw), dtype=g.dtype)
    for i in range(kh):
        gband = np.matmul(tiles[:, i:i + ho1].reshape(c, m, t).transpose(0, 2, 1),
                          g1.reshape(c, m, b))
        gw[:, 0, i] = gband[:, j + v, v].sum(axis=-1)
    if not need_x:
        return gw, None
    del tiles
    ph, pw = kh - 1 - pad, kw - 1 - pad
    ch, cw = max(0, -ph), max(0, -pw)
    gs = g1.transpose(2, 0, 1, 3)[:, :, ch:ho1 - ch, cw:wo1 - cw]
    return gw, _dw_fwd(gs, w[:, :, ::-1, ::-1], 1, max(0, ph), max(0, pw))


def conv2d(x, w, b=None, stride=1, pad=0, groups=1):
    """2-d cross-correlation: dense (groups=1) or depthwise (groups=Ci=Co).

    x: [N, Ci, H, W]; w: [Co, Ci, kh, kw], or [Ci, 1, kh, kw] for a depthwise
    conv, which a 1-channel conv at groups=1 is too; b: [Co] or None.
    Returns [N, Co, Ho, Wo] with Ho = (H + 2*pad - kh) / stride + 1, and Wo
    likewise. Depthwise convs take any stride; dense convs run at stride 1
    only, and unpadded 1x1 dense kernels are pointwise. Raises ConfigError
    for any other grouping, a strided dense conv, a weight or bias that does
    not fit x, or a non-integral output size. Tallies the analytic
    N*Ho*Wo*Co*(Ci/groups)*kh*kw MACs. The algorithms are in the module
    docstring.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ConfigError("conv2d expects 4-d input and weight")
    n, ci, h, wdt = x.shape
    co, cig, kh, kw = w.shape
    if groups != 1 and not groups == ci == co:
        raise ConfigError(f"conv2d: groups={groups} on {ci}->{co} channels; only 1 (dense) "
                          "or depthwise (groups = Ci = Co) are supported")
    if cig != ci // groups:
        raise ConfigError(f"conv2d: weight expects {cig} channels/group, input gives {ci // groups}")
    depthwise = cig == 1 and co == ci
    if not depthwise and stride != 1:
        raise ConfigError(f"conv2d: dense convs run at stride 1 only, got stride={stride}")
    if b is not None and b.shape != (co,):
        raise ConfigError(f"conv2d: bias shape {b.shape} != ({co},)")
    ho = _conv_out_size(h, kh, stride, pad)
    wo = _conv_out_size(wdt, kw, stride, pad)
    pointwise = kh == 1 and kw == 1 and pad == 0 and groups == 1 and stride == 1
    need_x, wd = x.requires_grad, w.data
    # each branch's closure captures only what its backward reads: the input
    # array
    if pointwise:
        x3 = x.data.reshape(n, ci, h * wdt)
        w2 = wd.reshape(co, ci)
        out = np.matmul(w2, x3).reshape(n, co, h, wdt)

        def grads(g):
            g3 = np.ascontiguousarray(g).reshape(n, co, h * wdt)
            gw = np.tensordot(g3, x3, axes=([0, 2], [0, 2])).reshape(co, ci, 1, 1)
            gx = np.matmul(w2.T, g3).reshape(n, ci, h, wdt) if need_x else None
            return gx, gw
    elif depthwise:
        xd = x.data
        out = _dw_fwd(xd, wd, stride, pad, pad)

        def grads(g):
            gw, gx = _dw_bwd(g, xd, wd, stride, pad, need_x)
            return gx, gw
    else:
        hp, wp = h + 2 * pad, wdt + 2 * pad
        xsrc = (x.data, pad)
        out = np.empty((n, co, ho, wo), dtype=x.data.dtype)
        _dense_fwd(wd, hp, wp, xsrc, (out, 0))

        def grads(g):
            gsrc = (g, 0)
            gw = _dense_wgrad(wd, hp, wp, gsrc, xsrc)
            if not need_x:
                return None, gw
            gx = np.empty((n, ci, h, wdt), dtype=g.dtype)
            _dense_fwd(wd.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1], hp, wp, gsrc, (gx, pad),
                       lead=(kh - 1) * wp + (kw - 1))
            return gx, gw
    if b is not None:
        out = out + b.data[:, None, None]
    _tally("conv2d", n * ho * wo * co * cig * kh * kw)

    def bwd(g):
        gx, gw = grads(g)
        if b is None:
            return gx, gw
        return gx, gw, g.sum(axis=(0, 2, 3))

    inputs = (x, w) if b is None else (x, w, b)
    return _out("conv2d", inputs, out, bwd)


def conv_transpose2d(x, w, b=None):
    """Transposed conv whose stride equals its kernel size.

    x: [N, Ci, H, W]; w: [Ci, Co, kh, kw]; the output is [N, Co, kh*H, kw*W],
    each input pixel landing on its own kh x kw patch. The forward runs one
    einsum per tap into the [N, Co, H, kh, W, kw] view of the output. As the
    patches do not overlap, the backward pass regroups d(out) to
    g3 = [N, Co*kh*kw, H*W]: d(x) is one GEMM of w, read as [Ci, Co*kh*kw],
    with g3, and d(w) one tensordot of x with g3 over N and H*W.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ConfigError("conv_transpose2d expects 4-d input and weight")
    n, ci, h, wdt = x.shape
    wci, co, kh, kw = w.shape
    if wci != ci:
        raise ConfigError(f"conv_transpose2d: input channels {ci} != weight in-channels {wci}")
    if b is not None and b.shape != (co,):
        raise ConfigError(f"conv_transpose2d: bias shape {b.shape} != ({co},)")
    xd, wd = x.data, w.data
    out = np.empty((n, co, h, kh, wdt, kw), dtype=xd.dtype)
    for a in range(kh):
        for c in range(kw):
            out[:, :, :, a, :, c] = np.einsum("ncij,cd->ndij", xd, wd[:, :, a, c])
    out = out.reshape(n, co, h * kh, wdt * kw)
    if b is not None:
        out += b.data[:, None, None]
    _tally("conv_transpose2d", n * h * wdt * kh * kw * ci * co)
    x3, w2 = xd.reshape(n, ci, h * wdt), wd.reshape(ci, co * kh * kw)

    def bwd(g):
        g3 = (g.reshape(n, co, h, kh, wdt, kw).transpose(0, 1, 3, 5, 2, 4)
              .reshape(n, co * kh * kw, h * wdt))
        gx = np.matmul(w2, g3).reshape(n, ci, h, wdt)
        gw = np.tensordot(x3, g3, axes=([0, 2], [0, 2])).reshape(ci, co, kh, kw)
        if b is None:
            return gx, gw
        return gx, gw, g.sum(axis=(0, 2, 3))

    inputs = (x, w) if b is None else (x, w, b)
    return _out("conv_transpose2d", inputs, out, bwd)


def pool2d(x, kind, k):
    """Non-overlapping k x k max/avg pooling (stride k); H, W must divide by k.

    Max-pool's forward is a running np.maximum over the k*k strided views
    x[..., i::k, j::k], with no copy of the windows. A recorded call also
    keeps, per window, the offset i*k + j of its winner in the smallest
    unsigned dtype that holds k*k - 1: an offset takes over a window only
    where it is strictly greater than the running maximum, so a tie, +0.0
    against -0.0 included, keeps the first row-major maximum. The tape keeps
    only these offsets, not x or the output, and the backward writes d(out)
    at each window's offset and +0.0 everywhere else.

    A window that contains NaN outputs NaN, as np.maximum propagates it; its
    d(out) goes to the first row-major maximum of the elements ahead of the
    first NaN, or to the NaN itself when it comes first. Such a window makes
    any loss that reads it NaN, and train_loop raises before backward on a
    non-finite loss.
    """
    n, c, h, w = x.shape
    if h % k or w % k:
        raise ConfigError(f"pool2d: spatial dims {h}x{w} not divisible by {k}")
    ho, wo = h // k, w // k
    r = x.data.reshape(n, c, ho, k, wo, k)
    dtype = x.data.dtype
    if kind == "avg":
        out = r.mean(axis=(3, 5))

        def bwd(g):
            gx = np.broadcast_to(g[:, :, :, None, :, None] / (k * k), (n, c, ho, k, wo, k))
            return (gx.reshape(n, c, h, w).astype(dtype, copy=True),)

        return _out("avgpool", (x,), out, bwd)
    if kind == "max":
        out = r[:, :, :, 0, :, 0].copy()
        win = np.zeros(out.shape, np.min_scalar_type(k * k - 1)) if _recorded((x,)) else None
        for i in range(k):
            for j in range(k):
                if i or j:
                    v = r[:, :, :, i, :, j]
                    if win is not None:
                        # offsets rise in visiting order, so the last one
                        # that beats the running maximum is the largest
                        np.maximum(win, np.multiply(v > out, i * k + j, dtype=win.dtype), out=win)
                    # np.maximum returns its second operand on ties, which
                    # keeps the first maximum's bits when +0.0 meets -0.0
                    np.maximum(v, out, out=out)

        def bwd(g):
            # g goes through an all-ones or all-zeros bit mask, so every
            # position but the winner gets +0.0 whatever the sign of g
            bits = np.dtype(f"u{dtype.itemsize}")
            gb = g.astype(dtype, copy=False).view(bits)
            gx = np.empty((n, c, h, w), dtype=dtype)
            gv = gx.reshape(n, c, ho, k, wo, k).view(bits)
            hit = np.empty(win.shape, dtype=bool)
            mask = np.empty(win.shape, dtype=bits)
            for i in range(k):
                for j in range(k):
                    np.equal(win, i * k + j, out=hit)
                    np.subtract(0, hit, out=mask, dtype=bits)    # 0 - 1 sets every bit
                    np.bitwise_and(gb, mask, out=gv[:, :, :, i, :, j])
            return (gx,)

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


BN_EPS = 1e-5
BN_MOMENTUM = 0.1


def batchnorm2d(x, gamma, beta, running, training=True):
    """Per-channel batch norm over N*H*W, with eps BN_EPS.

    `running` is a (mean, var) pair of raw arrays updated in place in train
    mode, with momentum BN_MOMENTUM; eval mode normalizes with them instead
    of batch statistics. The statistics are contiguous reductions on the
    [N, C, H*W] view, r.sum(axis=2).sum(axis=0) / m and the same on the
    centred squares, which is bitwise equal to mean/var over axes (0, 2, 3).
    The forward centres x once into xhat, scales it in place and writes the
    affine into the output with out=; an unrecorded eval call runs the same
    ops in the output itself, with no xhat. The backward takes d(gamma) and
    d(beta) from the same contiguous reductions.
    """
    n, c, h, w = x.shape
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ConfigError(f"batchnorm2d: affine params sized {gamma.shape} for {c} channels")
    if not training and running is None:
        raise ConfigError("batchnorm2d eval mode needs running statistics")
    d = x.data
    dtype = d.dtype
    m = n * h * w
    r = d.reshape(n, c, h * w)
    out = np.empty(x.shape, d.dtype)
    o = out.reshape(n, c, h * w)
    if training:
        mu = r.sum(axis=2).sum(axis=0) / m
        xhat = r - mu[:, None]
        np.multiply(xhat, xhat, out=o)
        var = o.sum(axis=2).sum(axis=0) / m
        if running is not None:
            rm, rv = running
            rm *= 1.0 - BN_MOMENTUM
            rm += BN_MOMENTUM * mu
            rv *= 1.0 - BN_MOMENTUM
            rv += BN_MOMENTUM * var
    else:
        mu, var = running
        # unrecorded, no backward reads xhat, so it is normalized in the output
        xdt = np.result_type(r, mu)
        xhat = o if xdt == dtype and not _recorded((x, gamma, beta)) else np.empty(r.shape, xdt)
        np.subtract(r, mu[:, None], out=xhat)
    invstd = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= invstd[:, None]
    np.multiply(xhat, gamma.data[:, None], out=o)
    o += beta.data[:, None]

    def bwd(g):
        g3 = g.reshape(n, c, h * w)
        dbeta = g3.sum(axis=2).sum(axis=0)
        gx = g3 * xhat
        dgamma = gx.sum(axis=2).sum(axis=0)
        k = gamma.data * invstd
        if training:
            # gx = k * (g - xhat * dgamma/m - dbeta/m)
            np.multiply(xhat, (dgamma / m)[:, None], out=gx)
            np.subtract(g3, gx, out=gx)
            gx -= (dbeta / m)[:, None]
            gx *= k[:, None]
        else:
            np.multiply(g3, k[:, None], out=gx)
        return gx.reshape(n, c, h, w).astype(dtype, copy=False), dgamma, dbeta

    return _out("batchnorm2d", (x, gamma, beta), out, bwd)


def layernorm(x, gamma, beta, eps=1e-6):
    """Normalization over the last dim with affine parameters of that size."""
    dlast = x.shape[-1]
    if gamma.shape != (dlast,) or beta.shape != (dlast,):
        raise ConfigError(f"layernorm: affine params sized {gamma.shape} for dim {dlast}")
    d = x.data
    dtype = d.dtype
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
        return gx.astype(dtype, copy=False), dgamma, dbeta

    return _out("layernorm", (x, gamma, beta), out.astype(dtype, copy=False), bwd)


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
