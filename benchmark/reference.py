"""A fixed reference computation, timed after every iteration of a workload.

The host this benchmark runs on changes speed by up to 1.6x over seconds to
minutes (other tenants share its caches and memory bandwidth), and the same
iteration's wall time moves with it. The reference is a fixed numpy
computation in the style of muvit's own forward: im2col dense 3x3 convs,
batch-norm arithmetic, exact-erf GELU, 2x2 max-pool and a 7x7 depthwise
einsum, on 16-channel maps of the workload's own batch and size, so that its
arrays meet the caches as the workload's do. It does not import muvit, so a code
change in muvit does not move it, while a change in the host's speed moves
both. Each iteration's time divided by the reference time measured right
after it cancels most of that drift.
"""

from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import erf

# span name of a reference pass in a traced phase
SPAN = "bench.reference"
# Set-up time is reported at the host speed at which one pass on SETUP_SHAPE
# (batch, size) takes NOMINAL_S seconds, about its median in quiet stretches
# of the 2-vCPU host the bounds were measured on.
SETUP_SHAPE = (8, 64)
NOMINAL_S = 0.12

@lru_cache(maxsize=None)
def _inputs(batch, size):
    """Input and weights, made on first use so that importing costs nothing."""
    rng = np.random.default_rng(20250801)
    x = rng.standard_normal((batch, 16, size, size)).astype(np.float32)
    w16 = (rng.standard_normal((16, 16 * 9)) * 0.1).astype(np.float32)
    w32 = (rng.standard_normal((32, 16 * 9)) * 0.1).astype(np.float32)
    wdw = (rng.standard_normal((32, 7, 7)) * 0.1).astype(np.float32)
    return x, w16, w32, wdw


def _conv3x3(x, w):
    n, c, h, wd = x.shape
    win = sliding_window_view(np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1))), (3, 3), axis=(2, 3))
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(n * h * wd, c * 9)
    return np.ascontiguousarray((cols @ w.T).reshape(n, h, wd, -1).transpose(0, 3, 1, 2))


def _norm_gelu(y):
    y = (y - y.mean((0, 2, 3), keepdims=True)) / np.sqrt(y.var((0, 2, 3), keepdims=True) + 1e-5)
    return y * (0.5 * (1.0 + erf(y / np.sqrt(2.0))))


def _maxpool2(x):
    n, c, h, w = x.shape
    return x.reshape(n, c, h // 2, 2, w // 2, 2).max((3, 5))


def run(batch, size):
    """One pass of the reference computation on `batch` maps of size x size
    (size divisible by 4); returns a checksum of its output."""
    x, w16, w32, wdw = _inputs(batch, size)
    y = _norm_gelu(_conv3x3(x, w16))
    y = _maxpool2(_norm_gelu(_conv3x3(y, w16)))
    y = _maxpool2(_norm_gelu(_conv3x3(y, w32)))
    win = sliding_window_view(np.pad(y, ((0, 0), (0, 0), (3, 3), (3, 3))), (7, 7), axis=(2, 3))
    y = _norm_gelu(np.einsum("nchwij,cij->nchw", win, wdw, optimize=True))
    return float(y.sum(dtype=np.float64))


def at_nominal_speed(seconds, ref_seconds):
    """`seconds` measured while a pass on SETUP_SHAPE took `ref_seconds`,
    rescaled to the host speed at which that pass takes NOMINAL_S."""
    return seconds * NOMINAL_S / ref_seconds
