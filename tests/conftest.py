import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def conv2d_reference(x, w, b=None, stride=1, pad=0, groups=1):
    """Brute-force nested-loop cross-correlation oracle."""
    n, ci, h, wd = x.shape
    co, cig, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((n, co, ho, wo), dtype=x.dtype)
    cog = co // groups
    for nn in range(n):
        for oc in range(co):
            gidx = oc // cog
            for oy in range(ho):
                for ox in range(wo):
                    acc = 0.0
                    for icg in range(cig):
                        ic = gidx * cig + icg
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += xp[nn, ic, oy * stride + ky, ox * stride + kx] \
                                    * w[oc, icg, ky, kx]
                    out[nn, oc, oy, ox] = acc
    if b is not None:
        out += b[None, :, None, None]
    return out

