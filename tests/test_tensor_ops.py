"""Forward-value tests for the tensor ops, against hand-derived and
brute-force oracles."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy.special import erf, erfc

from muvit import tensor as T
from muvit.model import ModelConfig, build_model
from muvit.nn import Conv2d
from muvit.tensor import ConfigError, Tensor

from conftest import conv2d_reference


def t(arr, dtype="f64"):
    return Tensor(np.asarray(arr, dtype=np.float64), dtype=dtype)


# each case keeps its id when another case is added or removed
CONV_CASES = {
    "case0": dict(n=2, ci=3, co=4, h=6, w=7, k=3, stride=1, pad=1, groups=1),
    "case1": dict(n=1, ci=4, co=4, h=5, w=5, k=3, stride=1, pad=2, groups=4),
    "case3": dict(n=1, ci=2, co=5, h=8, w=8, k=1, stride=1, pad=0, groups=1),
    "case4": dict(n=1, ci=3, co=3, h=9, w=9, k=7, stride=1, pad=3, groups=3),
    # dense path (stride 1 only): padding and shapes the model does not use
    "case5": dict(n=2, ci=3, co=4, h=6, w=7, k=3, stride=1, pad=0, groups=1),
    "case6": dict(n=1, ci=2, co=3, h=5, w=5, k=3, stride=1, pad=2, groups=1),
    "case7": dict(n=1, ci=3, co=2, h=4, w=9, k=3, stride=1, pad=1, groups=1),
    "case8": dict(n=1, ci=2, co=3, h=7, w=6, k=5, stride=1, pad=2, groups=1),
    "case10": dict(n=1, ci=3, co=2, h=4, w=5, k=1, stride=1, pad=1, groups=1),
    "case11": dict(n=3, ci=2, co=3, h=5, w=4, k=3, stride=1, pad=1, groups=1),
    # depthwise path: batches, tile edges, padding and strides; kw sets a
    # kernel width other than k
    "case12": dict(n=3, ci=4, co=4, h=6, w=7, k=3, stride=1, pad=1, groups=4),
    "case13": dict(n=2, ci=3, co=3, h=4, w=4, k=9, stride=1, pad=4, groups=3),
    "case14": dict(n=2, ci=2, co=2, h=5, w=19, k=7, stride=1, pad=3, groups=2),
    "case15": dict(n=2, ci=3, co=3, h=6, w=20, k=3, stride=1, pad=0, groups=3),
    "case16": dict(n=2, ci=2, co=2, h=7, w=9, k=3, stride=2, pad=1, groups=2),
    "case17": dict(n=2, ci=3, co=3, h=6, w=8, k=2, stride=2, pad=0, groups=3),
    "case18": dict(n=2, ci=2, co=2, h=5, w=20, k=3, kw=5, stride=1, pad=1, groups=2),
    # depthwise d(x) crops d(out) where pad >= k, in one or both axes, and
    # pads it by k-1-pad elsewhere
    "case19": dict(n=2, ci=3, co=3, h=4, w=5, k=1, stride=1, pad=1, groups=3),
    "case20": dict(n=1, ci=2, co=2, h=5, w=6, k=3, stride=1, pad=3, groups=2),
    "case21": dict(n=2, ci=2, co=2, h=4, w=7, k=1, kw=3, stride=1, pad=1, groups=2),
    "case22": dict(n=2, ci=3, co=3, h=7, w=11, k=3, kw=5, stride=2, pad=1, groups=3),
    # a 1-channel conv is depthwise at groups=1, and takes any stride
    "case23": dict(n=2, ci=1, co=1, h=8, w=10, k=2, stride=2, pad=0, groups=1),
}


def conv_case_arrays(rng, case):
    x = rng.standard_normal((case["n"], case["ci"], case["h"], case["w"]))
    w = rng.standard_normal((case["co"], case["ci"] // case["groups"], case["k"],
                             case.get("kw", case["k"])))
    return x, w, rng.standard_normal(case["co"])


class TestConv2d:
    def test_identity_1x1(self):
        out = T.conv2d(t([[[[5.0]]]]), t([[[[1.0]]]]), t([0.0]))
        assert out.item() == 5.0

    def test_ones_3x3_pad1(self):
        # hand convolution: center sees all 9 ones, corners see 4
        x = t(np.ones((1, 1, 3, 3)))
        w = t(np.ones((1, 1, 3, 3)))
        out = T.conv2d(x, w, pad=1).data[0, 0]
        assert out[1, 1] == 9.0
        assert out[0, 0] == out[0, 2] == out[2, 0] == out[2, 2] == 4.0

    def test_depthwise_channel_constant(self):
        x = np.zeros((1, 2, 3, 3))
        x[0, 0] = 1.0
        x[0, 1] = 2.0
        w = t(np.ones((2, 1, 3, 3)))
        out = T.conv2d(t(x), w, pad=1, groups=2).data
        assert out[0, 0, 1, 1] == 9.0
        assert out[0, 1, 1, 1] == 18.0

    @pytest.mark.parametrize("case", CONV_CASES.values(), ids=list(CONV_CASES))
    def test_against_bruteforce(self, rng, case):
        x, w, b = conv_case_arrays(rng, case)
        ref = conv2d_reference(x, w, b, case["stride"], case["pad"], case["groups"])
        out = T.conv2d(t(x), t(w), t(b), case["stride"], case["pad"], case["groups"])
        np.testing.assert_allclose(out.data, ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("case", CONV_CASES.values(), ids=list(CONV_CASES))
    def test_gradients_match_central_differences(self, rng, case):
        x, w, b = conv_case_arrays(rng, case)
        args = case["stride"], case["pad"], case["groups"]
        r = t(rng.standard_normal(conv2d_reference(x, w, b, *args).shape) * 0.1)
        err = T.gradcheck(lambda x_, w_, b_: T.tsum(T.mul(T.conv2d(x_, w_, b_, *args), r)),
                          [t(x), t(w), t(b)])
        assert err <= 1e-5

    @pytest.mark.parametrize("k,stride,pad,h,w", [(9, 1, 4, 10, 20), (3, 2, 1, 11, 21),
                                                  (2, 2, 0, 10, 20)])
    def test_depthwise_mac_tally_is_analytic(self, k, stride, pad, h, w):
        # the tally counts the conv's own MACs, not the banded GEMMs' work
        x = t(np.ones((2, 6, h, w)), "f32")
        with T.count_macs() as counter:
            out = T.conv2d(x, t(np.ones((6, 1, k, k)), "f32"), stride=stride, pad=pad, groups=6)
        n, c, ho, wo = out.shape
        assert counter.by_op == {"conv2d": n * ho * wo * c * k * k}

    def test_group_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            T.conv2d(t(np.ones((1, 3, 4, 4))), t(np.ones((4, 1, 3, 3))), groups=2)

    @pytest.mark.parametrize("ci,co,groups", [(4, 4, 2), (4, 8, 4), (4, 8, 2)])
    def test_grouped_dense_rejected(self, ci, co, groups):
        # only groups=1 and depthwise (groups = Ci = Co) are implemented
        with pytest.raises(ConfigError, match="groups"):
            T.conv2d(t(np.ones((1, ci, 4, 4))), t(np.ones((co, ci // groups, 3, 3))),
                     pad=1, groups=groups)
        with pytest.raises(ConfigError, match="groups"):
            Conv2d(ci, co, 3, groups=groups)

    def test_nonintegral_output_rejected(self):
        with pytest.raises(ConfigError, match="non-integral"):
            T.conv2d(t(np.ones((1, 2, 6, 6))), t(np.ones((2, 1, 3, 3))), stride=2, pad=1,
                     groups=2)

    @pytest.mark.parametrize("k,pad", [(3, 1), (1, 0)])
    def test_strided_dense_rejected(self, k, pad):
        # dense convs run at stride 1 only; a strided depthwise conv is fine
        with pytest.raises(ConfigError, match="stride 1 only"):
            T.conv2d(t(np.ones((1, 2, 7, 7))), t(np.ones((3, 2, k, k))), stride=2, pad=pad)
        assert T.conv2d(t(np.ones((1, 2, 7, 7))), t(np.ones((2, 1, k, k))), stride=2, pad=pad,
                        groups=2).shape == (1, 2, 4, 4)


def dense_whole_span(x, w, pad):
    """The dense forward as one GEMM per tap over the whole flat padded grid,
    before its columns were blocked. conv2d must keep these f32 sums bit for
    bit: the f32-vs-f64 training check downstream flips with last-bit changes
    in a ReLU input."""
    n, ci, h, wd = x.shape
    co, _, kh, kw = w.shape
    hp, wp = h + 2 * pad, wd + 2 * pad
    xf = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))).transpose(1, 0, 2, 3).reshape(ci, -1)
    span = xf.shape[1] - (kh - 1) * wp - (kw - 1)
    out = np.zeros((co, xf.shape[1]), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            out[:, :span] += w[:, :, i, j] @ xf[:, i * wp + j:i * wp + j + span]
    out = out.reshape(co, n, hp, wp)[:, :, :hp - kh + 1, :wp - kw + 1]
    return out.transpose(1, 0, 2, 3)


def dense_reference(x, w, g, pad):
    """(out, d(x), d(w)) of a dense conv for d(out) = g, one kernel tap at a
    time over the zero-padded input."""
    n, ci, h, wd = x.shape
    co, _, kh, kw = w.shape
    ho, wo = g.shape[2], g.shape[3]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out, gxp, gw = np.zeros(g.shape), np.zeros(xp.shape), np.zeros(w.shape)
    for i in range(kh):
        for j in range(kw):
            win = (Ellipsis, slice(i, i + ho), slice(j, j + wo))
            out += np.einsum("oc,ncyx->noyx", w[..., i, j], xp[win], optimize=True)
            gxp[win] += np.einsum("oc,noyx->ncyx", w[..., i, j], g, optimize=True)
            gw[..., i, j] = np.einsum("noyx,ncyx->oc", g, xp[win], optimize=True)
    return out, gxp[:, :, pad:pad + h, pad:pad + wd], gw


def dense_full_grid(x, w, g, pad):
    """(out, d(x), d(w)) of a dense conv for d(out) = g, computed as conv2d
    did on full-size flat padded grids before its blocks were staged: the
    input and the lead-padded d(out) zero-padded once into
    [C, N*Hp*Wp] arrays, one GEMM per tap and column block of _dense_blocks,
    summed into a grid-sized output that is then cropped. Staging the blocks
    must keep all three bit for bit."""
    n, ci, h, wd = x.shape
    co, _, kh, kw = w.shape
    hp, wp = h + 2 * pad, wd + 2 * pad
    lead = (kh - 1) * wp + (kw - 1)

    def grid(a, top, lead=0):
        buf = np.zeros((a.shape[1], lead + n * hp * wp), a.dtype)
        hh, ww = a.shape[2:]
        buf[:, lead:].reshape(-1, n, hp, wp)[:, :, top:top + hh, top:top + ww] = \
            a.transpose(1, 0, 2, 3)
        return buf

    def crop(buf, top, hh, ww):
        grid = buf[:, :n * hp * wp].reshape(-1, n, hp, wp)
        return grid[:, :, top:top + hh, top:top + ww].transpose(1, 0, 2, 3)

    def fwd(xf, k):
        wt = np.ascontiguousarray(k.transpose(2, 3, 0, 1))
        out = np.zeros((k.shape[0], xf.shape[1]), xf.dtype)
        for q, l in T._dense_blocks(k, wp, xf.shape[1]):
            for i in range(kh):
                for j in range(kw):
                    out[:, q:q + l] += wt[i, j] @ xf[:, q + i * wp + j:q + i * wp + j + l]
        return out

    xf, gs = grid(x, pad), grid(g, 0, lead)
    gw = np.zeros((kh, kw, co, ci), x.dtype)
    for q, l in T._dense_blocks(w, wp, xf.shape[1]):
        for i in range(kh):
            for j in range(kw):
                gw[i, j] += gs[:, lead + q:lead + q + l] @ xf[:, q + i * wp + j:q + i * wp + j + l].T
    out = crop(fwd(xf, w), 0, g.shape[2], g.shape[3])
    gx = crop(fwd(gs, w.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]), pad, h, wd)
    return out, gx, gw.transpose(2, 3, 0, 1)


# (n, ci, co, h, w, k, pad); each spans at least 2 column blocks
DENSE_MULTIBLOCK_CASES = [
    (2, 64, 8, 40, 40, 3, 1),
    (1, 32, 16, 64, 64, 5, 2),
]


class TestDenseConv:
    @pytest.mark.parametrize("n,ci,co,h,w,k,pad", [
        (8, 3, 16, 64, 64, 3, 1),      # stem, train64
        (1, 3, 16, 256, 256, 3, 1),    # stem, eval256
        (8, 32, 32, 64, 64, 3, 1),     # dec5, train64
        (2, 64, 8, 40, 40, 3, 1),      # several column blocks
        (1, 32, 16, 64, 64, 5, 2),     # 5x5 kernel
    ])
    def test_f32_forward_bitwise_equal_to_whole_span_gemms(self, n, ci, co, h, w, k, pad):
        rng = np.random.default_rng(h * w + ci)
        x = rng.standard_normal((n, ci, h, w)).astype(np.float32)
        wt = (rng.standard_normal((co, ci, k, k)) * 0.2).astype(np.float32)
        out = T.conv2d(Tensor(x, dtype="f32"), Tensor(wt, dtype="f32"), pad=pad).data
        assert out.dtype == np.float32
        assert np.array_equal(out, dense_whole_span(x, wt, pad))

    @pytest.mark.parametrize("n,ci,co,h,w,k,pad", DENSE_MULTIBLOCK_CASES)
    def test_multiblock_f64_forward_and_gradients_against_reference(
            self, n, ci, co, h, w, k, pad):
        rng = np.random.default_rng(ci * co + k)
        hp, wp = h + 2 * pad, w + 2 * pad
        assert len(T._dense_blocks(np.empty((co, ci, k, k)), wp, n * hp * wp)) >= 2
        x = Tensor(rng.standard_normal((n, ci, h, w)), requires_grad=True)
        wt = Tensor(rng.standard_normal((co, ci, k, k)), requires_grad=True)
        g = rng.standard_normal((n, co, hp - k + 1, wp - k + 1))
        with T.record():
            out = T.conv2d(x, wt, pad=pad)
            T.backward(T.tsum(T.mul(out, Tensor(g))))
        ref_out, ref_gx, ref_gw = dense_reference(x.data, wt.data, g, pad)
        np.testing.assert_allclose(out.data, ref_out, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(x.grad, ref_gx, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(wt.grad, ref_gw, rtol=1e-10, atol=1e-10)

    def test_backward_transient_memory(self):
        # d(out) and the input are staged a block at a time, so the backward
        # holds d(x), d(w) and a few blocks, well under 2.5 grids
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((1, 32, 128, 128)), requires_grad=True, dtype="f32")
        w = Tensor(rng.standard_normal((32, 32, 3, 3)), requires_grad=True, dtype="f32")
        g = rng.standard_normal((1, 32, 128, 128)).astype(np.float32)
        with T.record() as graph:
            T.conv2d(x, w, pad=1)
        bwd = graph.nodes[-1].bwd
        grid = 32 * 130 * 130 * 4
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            gx, gw = bwd(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gx.shape == x.shape and gw.shape == w.shape
        assert peak - base <= 2.5 * grid

    # (n, ci, co, h, w, kh, kw, stride, pad, block width), stride 1 being the
    # only one dense convs take: the block width, when given, shrinks _BLOCK
    # so that column blocks fall everywhere on the grid; the first four
    # shapes lie on both sides of the small-GEMM regime
    @pytest.mark.parametrize("n,ci,co,h,w,kh,kw,stride,pad,block", [
        (8, 32, 32, 4, 4, 3, 3, 1, 1, None),      # one block over eight images
        (8, 80, 80, 8, 8, 3, 3, 1, 1, None),
        (8, 32, 32, 64, 64, 3, 3, 1, 1, None),    # dec5, train64
        (1, 3, 16, 64, 64, 3, 3, 1, 1, None),     # stem
        (2, 16, 8, 20, 20, 3, 3, 1, 0, 29),
        (2, 16, 8, 24, 24, 5, 5, 1, 2, 53),
        (2, 8, 8, 12, 12, 1, 3, 1, 1, 23),
    ])
    def test_dense_staged_bitwise_equal_to_full_grid(
            self, monkeypatch, n, ci, co, h, w, kh, kw, stride, pad, block):
        hp, wp = h + 2 * pad, w + 2 * pad
        if block:
            monkeypatch.setattr(T, "_BLOCK", block * max(co, ci))
            starts = [q for q, _ in T._dense_blocks(np.empty((co, ci, kh, kw)), wp, n * hp * wp)]
            assert any(q % wp for q in starts)                       # mid-row
            assert pad == 0 or any((q // wp) % hp >= pad + h for q in starts)  # bottom margin
        rng = np.random.default_rng(ci * h + kw)
        xd = rng.standard_normal((n, ci, h, w)).astype(np.float32)
        wd = (rng.standard_normal((co, ci, kh, kw)) * 0.2).astype(np.float32)
        g = rng.standard_normal((n, co, hp - kh + 1, wp - kw + 1)).astype(np.float32)
        expected = [a.tobytes() for a in dense_full_grid(xd, wd, g, pad)]
        x, wt = Tensor(xd, requires_grad=True), Tensor(wd, requires_grad=True)
        with T.record() as graph:
            out = T.conv2d(x, wt, stride=stride, pad=pad)
        gx, gw = graph.nodes[-1].bwd(g)
        assert [a.tobytes() for a in (out.data, gx, gw)] == expected

    @pytest.mark.parametrize("n", [1, 2])
    def test_dense_forward_transient_memory_is_blocks_not_grids(self, n):
        # the call stages a block's window of the padded input and sums its
        # taps in a block-sized accumulator: it holds its output plus a few
        # blocks at any batch size, where one sample's padded grid is 8.5 MB
        x = Tensor(np.ones((n, 32, 256, 256), np.float32))
        w = Tensor(np.ones((32, 32, 3, 3), np.float32))
        block = T._BLOCK * 4
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = T.conv2d(x, w, pad=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base - out.data.nbytes <= 4 * block < 32 * 258 * 258 * 4

    def test_dense_base256_eval_peak_memory(self):
        # the largest maps are 32 channels at 256x256 (8.4 MB each): dec5's
        # conv input, its output and the BatchNorm output, each freed once
        # the next exists; full-size padded grids in the dense conv made
        # this peak 37.8 MB
        model = build_model(ModelConfig.for_variant("base", input_size=256), seed=0)
        model.eval()
        x = Tensor(np.random.default_rng(0).standard_normal((1, 3, 256, 256)).astype(np.float32))
        with T.no_grad():
            model(x)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                model(x)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        assert peak <= 26e6, f"eval peak {peak / 1e6:.2f} MB"


class TestConvTranspose2d:
    def test_scatter_one_element(self):
        out = T.conv_transpose2d(t([[[[1.0]]]]), t(np.ones((1, 1, 2, 2))))
        np.testing.assert_array_equal(out.data, np.ones((1, 1, 2, 2)))

    def test_zero_weights(self):
        out = T.conv_transpose2d(t(np.ones((1, 2, 3, 3))), t(np.zeros((2, 4, 2, 2))))
        assert out.shape == (1, 4, 6, 6)
        assert np.all(out.data == 0.0)

    def test_nonoverlapping_scatter(self):
        out = T.conv_transpose2d(t(np.ones((1, 1, 2, 2))), t(np.ones((1, 1, 2, 2))))
        np.testing.assert_array_equal(out.data, np.ones((1, 1, 4, 4)))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            T.conv_transpose2d(t(np.ones((1, 3, 2, 2))), t(np.ones((2, 2, 2, 2))))

    @pytest.mark.parametrize("kh,kw", [(1, 1), (2, 2), (3, 3), (2, 3)])
    def test_matches_per_tap_scatter(self, rng, kh, kw):
        # input pixel (i, j) scatters x[:, :, i, j] @ w[:, :, a, c] onto output
        # pixel (kh*i + a, kw*j + c); d(x) and d(w) are the matching per-tap
        # gathers of d(out)
        x = Tensor(rng.standard_normal((2, 3, 3, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 5, kh, kw)), requires_grad=True)
        g = rng.standard_normal((2, 5, 3 * kh, 4 * kw))
        with T.record():
            out = T.conv_transpose2d(x, w)
            T.backward(T.tsum(T.mul(out, Tensor(g))))
        ref, gx, gw = np.zeros(g.shape), np.zeros(x.shape), np.zeros(w.shape)
        for a in range(kh):
            for c in range(kw):
                tap = (Ellipsis, slice(a, None, kh), slice(c, None, kw))
                ref[tap] = np.einsum("ncij,cd->ndij", x.data, w.data[:, :, a, c])
                gx += np.einsum("ndij,cd->ncij", g[tap], w.data[:, :, a, c])
                gw[:, :, a, c] = np.einsum("ncij,ndij->cd", x.data, g[tap])
        np.testing.assert_allclose(out.data, ref, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(x.grad, gx, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(w.grad, gw, rtol=1e-12, atol=1e-12)


class TestPool2d:
    def test_max(self):
        out = T.pool2d(t([[[[1.0, 2.0], [3.0, 4.0]]]]), "max", 2)
        assert out.item() == 4.0

    def test_avg(self):
        out = T.pool2d(t([[[[1.0, 2.0], [3.0, 4.0]]]]), "avg", 2)
        assert out.item() == 2.5

    def test_max_backward_routes_to_argmax(self):
        x = t([[[[1.0, 2.0], [3.0, 4.0]]]])
        x.requires_grad = True
        with T.record():
            out = T.pool2d(x, "max", 2)
            T.backward(T.tsum(out))
        np.testing.assert_array_equal(x.grad[0, 0], [[0.0, 0.0], [0.0, 1.0]])

    def test_max_backward_tie_first_occurrence(self):
        x = t(np.ones((1, 1, 2, 2)))
        x.requires_grad = True
        with T.record():
            T.backward(T.tsum(T.pool2d(x, "max", 2)))
        np.testing.assert_array_equal(x.grad[0, 0], [[1.0, 0.0], [0.0, 0.0]])

    def test_indivisible_rejected(self):
        with pytest.raises(ConfigError):
            T.pool2d(t(np.ones((1, 1, 3, 3))), "max", 2)

    def test_max_nan_window_routes_to_first_maximum_ahead_of_nan(self):
        # windows (row-major): [1, nan, 3, 2], [nan, 5, 6, 7], [1, 5, nan, 7]
        x = Tensor(np.array([[[[1.0, np.nan, np.nan, 5.0, 1.0, 5.0],
                               [3.0, 2.0, 6.0, 7.0, np.nan, 7.0]]]]), requires_grad=True)
        with T.record():
            out = T.pool2d(x, "max", 2)
            T.backward(T.tsum(T.mul(out, Tensor(np.array([[[[2.0, 3.0, 4.0]]]])))))
        assert np.isnan(out.data).all()
        np.testing.assert_array_equal(x.grad[0, 0], [[2.0, 0.0, 3.0, 0.0, 0.0, 4.0],
                                                     [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]])

    def test_max_recorded_input_freed_once_unreferenced(self, rng):
        # the tape keeps the winner offsets, not the input or the output
        x = Tensor(rng.standard_normal((2, 3, 8, 8)), requires_grad=True)
        with T.record():
            h = T.scale(x, 2.0)
            ref = weakref.ref(h.data)
            out = T.pool2d(h, "max", 2)
            del h
            assert ref() is None
            T.backward(T.tsum(out))
        assert x.grad.shape == x.shape

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k", [2, 3])
    def test_max_bitwise_equal_to_first_occurrence_reference(self, rng, k, dtype):
        # few distinct values, with +0.0 and -0.0 mixed, so most windows tie
        x = rng.integers(-2, 3, (3, 4, 4 * k, 5 * k)).astype(dtype)
        zeros = x == 0
        x[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)
        g = rng.standard_normal((3, 4, 4, 5)).astype(dtype)
        g[0, 0, 0, :2] = [-0.0, 0.0]
        ref_out = np.empty(g.shape, dtype)
        ref_gx = np.zeros(x.shape, dtype)
        for idx in np.ndindex(*g.shape):
            n, c, oy, ox = idx
            win = x[n, c, oy * k:(oy + 1) * k, ox * k:(ox + 1) * k]
            best = None
            for i in range(k):
                for j in range(k):
                    if best is None or win[i, j] > win[best]:
                        best = (i, j)
            ref_out[idx] = win[best]
            ref_gx[n, c, oy * k + best[0], ox * k + best[1]] = g[idx]
        xt = Tensor(x, requires_grad=True)
        with T.record():
            out = T.pool2d(xt, "max", k)
            T.backward(T.tsum(T.mul(out, Tensor(g))))
        assert out.data.dtype == dtype and xt.grad.dtype == dtype
        assert out.data.tobytes() == ref_out.tobytes()
        assert xt.grad.tobytes() == ref_gx.tobytes()


class TestBilinearUpsample:
    def test_constant(self):
        out = T.bilinear_upsample(t(np.full((1, 1, 3, 3), 2.5)), 2)
        np.testing.assert_allclose(out.data, 2.5)

    def test_corner_preservation(self):
        x = t([[[[1.0, 2.0], [3.0, 4.0]]]])
        out = T.bilinear_upsample(x, 2).data[0, 0]
        assert out[0, 0] == 1.0 and out[0, 3] == 2.0
        assert out[3, 0] == 3.0 and out[3, 3] == 4.0

    def test_degenerate_single_pixel(self):
        out = T.bilinear_upsample(t([[[[7.0]]]]), 4)
        np.testing.assert_array_equal(out.data, np.full((1, 1, 4, 4), 7.0))

    def test_interior_interpolation(self):
        # align-corners on [0, 3] over 4 outputs: positions 0, 1/3, 2/3, 1
        x = t([[[[0.0, 3.0]]]])
        out = T.bilinear_upsample(x, 2).data[0, 0, 0]
        np.testing.assert_allclose(out, [0.0, 1.0, 2.0, 3.0], atol=1e-12)

    def test_scale_one_rejected(self):
        with pytest.raises(ConfigError):
            T.bilinear_upsample(t(np.ones((1, 1, 2, 2))), 1)


class TestNorms:
    def test_bn_constant_input_zero_output(self):
        x = t(np.full((2, 3, 4, 4), 5.0))
        out = T.batchnorm2d(x, t(np.ones(3)), t(np.zeros(3)), None, training=True)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_bn_gamma_zero_beta_seven(self):
        x = t(np.random.default_rng(0).standard_normal((2, 3, 4, 4)))
        out = T.batchnorm2d(x, t(np.zeros(3)), t(np.full(3, 7.0)), None, training=True)
        np.testing.assert_allclose(out.data, 7.0, atol=1e-12)

    def test_bn_two_values(self):
        # values {1, 3}: mean 2, biased variance 1 -> outputs -+1 / sqrt(1 + eps)
        x = np.zeros((2, 1, 1, 1))
        x[0, 0] = 1.0
        x[1, 0] = 3.0
        out = T.batchnorm2d(t(x), t(np.ones(1)), t(np.zeros(1)), None, training=True)
        np.testing.assert_allclose(out.data.reshape(-1),
                                   np.array([-1.0, 1.0]) / np.sqrt(1.0 + T.BN_EPS), atol=1e-12)

    def test_bn_eval_uses_running_stats(self):
        running = (np.array([2.0]), np.array([4.0]))
        x = t(np.full((1, 1, 2, 2), 6.0))
        out = T.batchnorm2d(x, t(np.ones(1)), t(np.zeros(1)), running, training=False)
        np.testing.assert_allclose(out.data, 4.0 / np.sqrt(4.0 + T.BN_EPS))  # (6-2)/sqrt(4+eps)

    def test_bn_channel_mismatch(self):
        with pytest.raises(ConfigError):
            T.batchnorm2d(t(np.ones((1, 3, 2, 2))), t(np.ones(2)), t(np.zeros(2)),
                          None, training=True)

    @staticmethod
    def _bn_reference(d, gamma, beta, running, eps, momentum, training):
        if training:
            mu = d.mean(axis=(0, 2, 3))
            var = d.var(axis=(0, 2, 3))
            rm, rv = running
            rm *= 1.0 - momentum
            rm += momentum * mu
            rv *= 1.0 - momentum
            rv += momentum * var
        else:
            mu, var = running
        invstd = 1.0 / np.sqrt(var + eps)
        xhat = (d - mu[:, None, None]) * invstd[:, None, None]
        return gamma[:, None, None] * xhat + beta[:, None, None]

    @pytest.mark.parametrize("shape", [(8, 16, 64, 64), (8, 64, 16, 16), (8, 128, 2, 2),
                                       (1, 16, 32, 32), (3, 5, 7, 9), (2, 3, 1, 1)])
    @pytest.mark.parametrize("training", [True, False])
    def test_bn_f32_bitwise_equal_to_mean_var_formula(self, rng, shape, training):
        c = shape[1]
        d = (rng.standard_normal(shape) * 3.0 + 0.7).astype(np.float32)
        gamma = (1.0 + 0.2 * rng.standard_normal(c)).astype(np.float32)
        beta = (0.3 * rng.standard_normal(c)).astype(np.float32)
        start = ((0.1 * rng.standard_normal(c)).astype(np.float32),
                 (1.0 + rng.random(c)).astype(np.float32))
        ref_running = tuple(a.copy() for a in start)
        running = tuple(a.copy() for a in start)
        ref = self._bn_reference(d, gamma, beta, ref_running, 1e-5, 0.1, training)
        out = T.batchnorm2d(Tensor(d), Tensor(gamma), Tensor(beta), running,
                            training=training)
        assert out.data.dtype == np.float32
        assert out.data.tobytes() == ref.tobytes()
        assert running[0].tobytes() == ref_running[0].tobytes()
        assert running[1].tobytes() == ref_running[1].tobytes()
        if not training:
            # recorded, eval mode keeps xhat for the backward pass; the values match
            with T.record():
                rec = T.batchnorm2d(Tensor(d, requires_grad=True), Tensor(gamma),
                                    Tensor(beta), running, training=False)
            assert rec.data.tobytes() == ref.tobytes()

    def test_bn_eval_unrecorded_allocates_only_its_output(self):
        x = Tensor(np.ones((1, 32, 128, 128), np.float32))
        gamma, beta = Tensor(np.ones(32, np.float32)), Tensor(np.zeros(32, np.float32))
        running = (np.zeros(32, np.float32), np.ones(32, np.float32))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = T.batchnorm2d(x, gamma, beta, running, training=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base - out.data.nbytes < 64 * 1024

    def test_ln_constant_token_zeros(self):
        x = t(np.full((2, 5, 8), 3.3))
        out = T.layernorm(x, t(np.ones(8)), t(np.zeros(8)))
        np.testing.assert_allclose(out.data, 0.0, atol=1e-9)

    def test_ln_two_values(self):
        out = T.layernorm(t([[1.0, -1.0]]), t(np.ones(2)), t(np.zeros(2)), eps=1e-14)
        np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-6)

    def test_ln_affine(self):
        out = T.layernorm(t([[1.0, -1.0]]), t(np.full(2, 2.0)), t(np.ones(2)), eps=1e-14)
        np.testing.assert_allclose(out.data, [[3.0, -1.0]], atol=1e-6)


class TestActivations:
    def test_fixed_points(self):
        assert T.gelu(t([0.0])).data[0] == 0.0
        assert T.relu(t([-2.0])).data[0] == 0.0
        assert T.sigmoid(t([0.0])).data[0] == 0.5
        np.testing.assert_allclose(T.softmax(t([[0.0, 0.0]])).data, [[0.5, 0.5]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_bitwise_equal_to_three_exp_formula(self, rng, dtype):
        # one exp(-|x|) shared by both branches gives the bytes of the formula
        # that evaluates it once per use
        d = np.concatenate([rng.standard_normal(100_000) * 30,
                            [0.0, -0.0, np.inf, -np.inf, 88.7, -88.7, 103.9, -103.9]]).astype(dtype)
        ref = np.where(d >= 0, 1.0 / (1.0 + np.exp(-np.abs(d))),
                       np.exp(-np.abs(d)) / (1.0 + np.exp(-np.abs(d)))).astype(dtype)
        out = T.sigmoid(Tensor(d)).data
        assert out.dtype == dtype and out.tobytes() == ref.tobytes()

    def test_gelu_at_one(self):
        # x * Phi(x) at 1: Phi(1) = 0.8413447 from the standard normal CDF
        assert abs(T.gelu(t([1.0])).data[0] - 0.841345) < 1e-5

    def test_gelu_f32_fixed_points(self):
        out = T.gelu(Tensor(np.array([0.0, 20.0, -20.0], np.float32))).data
        assert out.dtype == np.float32
        assert out[0] == 0.0 and out[1] == 20.0 and out[2] == 0.0

    def test_gelu_f32_dense_grid_against_f64(self):
        # 3M points over [-12, 12]: the erfc approximation is no less
        # accurate than scipy's erf in f32, and so is its derivative
        x = np.linspace(-12.0, 12.0, 3_000_001).astype(np.float32)
        x64 = x.astype(np.float64)
        cdf = 0.5 * erfc(-x64 / math.sqrt(2.0))
        xt = Tensor(x, requires_grad=True)
        with T.record():
            y = T.gelu(xt)
            T.backward(T.tsum(y))
        assert y.data.dtype == np.float32 and xt.grad.dtype == np.float32
        err = np.abs(y.data - x64 * cdf).max()
        scipy_f32 = x * (0.5 * (1.0 + erf(x / np.float32(math.sqrt(2.0)))))
        assert scipy_f32.dtype == np.float32
        assert err <= np.abs(scipy_f32 - x64 * cdf).max()
        dref = cdf + x64 * np.exp(-0.5 * x64 * x64) / math.sqrt(2.0 * math.pi)
        assert np.abs(xt.grad - dref).max() <= 5e-7

    def test_gelu_f64_within_4_ulp_of_scipy_erf(self):
        # math.erf and scipy's erf differ by a few ulp; 1 + erf(x/sqrt 2)
        # cancels for x << 0, so the error is taken in ulps of the scale of
        # the terms, max(|x|, |y|) for y = x Phi(x) and max(1, |y'|) for
        # y' = Phi(x) + x phi(x), not of y itself
        x = np.linspace(-12.0, 12.0, 1_000_001)
        xt = Tensor(x, requires_grad=True)
        with T.record():
            y = T.gelu(xt)
            T.backward(T.tsum(y))
        cdf = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
        ref = x * cdf
        dref = cdf + x * np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        assert y.data.dtype == np.float64 and xt.grad.dtype == np.float64
        assert np.all(np.abs(y.data - ref) <= 4 * np.spacing(np.maximum(np.abs(x), np.abs(ref))))
        assert np.all(np.abs(xt.grad - dref) <= 4 * np.spacing(np.maximum(1.0, np.abs(dref))))

    def test_gelu_f32_across_chunks(self, rng):
        # longer than two chunks, not a multiple of the chunk: each element
        # gets the value it gets on its own
        n = 2 * T._GELU_CHUNK + 12345
        x = (rng.standard_normal(n) * 4.0).astype(np.float32)
        whole = T.gelu(Tensor(x)).data
        single = np.concatenate([T.gelu(Tensor(x[i:i + 1000])).data
                                 for i in range(0, n, 1000)])
        assert whole.tobytes() == single.tobytes()
        x64 = x.astype(np.float64)
        np.testing.assert_allclose(whole, x64 * 0.5 * erfc(-x64 / math.sqrt(2.0)),
                                   rtol=0, atol=5e-7)

    def test_gelu_f32_bitwise_repeatable_and_same_with_or_without_tape(self, rng):
        x = (rng.standard_normal((4, 8, 33, 17)) * 3.0).astype(np.float32)

        def run():
            xt = Tensor(x, requires_grad=True)
            with T.record():
                y = T.gelu(xt)
                T.backward(T.tsum(y))
            return y.data.tobytes(), xt.grad.tobytes()

        first = run()
        assert first == run()
        with T.no_grad():
            assert T.gelu(Tensor(x, requires_grad=True)).data.tobytes() == first[0]

    def test_softmax_rows_sum_to_one(self, rng):
        x = t(rng.standard_normal((4, 7, 9)) * 3)
        s = T.softmax(x).data
        assert np.all(s >= 0)
        np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-6)


class TestLinearAndAttention:
    def test_linear_identity(self, rng):
        x = t(rng.standard_normal((3, 4)))
        out = T.linear(x, t(np.eye(4)), t(np.zeros(4)))
        np.testing.assert_allclose(out.data, x.data)

    def test_linear_zero_weight_bias_only(self):
        x = t(np.ones((5, 3)))
        out = T.linear(x, t(np.zeros((2, 3))), t([1.0, 2.0]))
        np.testing.assert_array_equal(out.data, np.tile([1.0, 2.0], (5, 1)))

    def test_linear_hand_product(self):
        out = T.linear(t([1.0, 2.0]), t([[1.0, 1.0], [0.0, 1.0]]), t([0.0, 0.0]))
        np.testing.assert_array_equal(out.data, [3.0, 2.0])

    def _identity_weights(self, d):
        eye = t(np.eye(d))
        zero = t(np.zeros(d))
        return dict(wq=eye, wk=t(np.eye(d)), wv=t(np.eye(d)), wo=t(np.eye(d)),
                    bq=zero, bk=t(np.zeros(d)), bv=t(np.zeros(d)), bo=t(np.zeros(d)))

    def test_mhsa_single_token_identity(self, rng):
        x = t(rng.standard_normal((1, 1, 4)))
        ws = self._identity_weights(4)
        out = T.mhsa(x, 2, **ws)
        np.testing.assert_allclose(out.data, x.data, atol=1e-12)

    def test_mhsa_identical_tokens(self, rng):
        token = rng.standard_normal(4)
        x = t(np.stack([token, token])[None])
        out = T.mhsa(x, 2, **self._identity_weights(4))
        np.testing.assert_allclose(out.data[0, 0], token, atol=1e-12)
        np.testing.assert_allclose(out.data[0, 1], token, atol=1e-12)

    def test_mhsa_zero_output_projection(self, rng):
        x = t(rng.standard_normal((2, 3, 4)))
        ws = self._identity_weights(4)
        ws["wo"] = t(np.zeros((4, 4)))
        out = T.mhsa(x, 2, **ws)
        assert np.all(out.data == 0.0)

    def test_mhsa_head_mismatch(self, rng):
        x = t(rng.standard_normal((1, 2, 6)))
        with pytest.raises(ConfigError):
            T.mhsa(x, 4, **self._identity_weights(6))


class TestDSConvComposition:
    def test_equivalent_dense_kernel(self, rng):
        # depthwise KxK + 1x1 + 1x1 == dense conv with kernel
        # K[o,i,:,:] = (pw2 @ pw1)[o,i] * dw[i,:,:]
        ci, k = 4, 3
        x = rng.standard_normal((2, ci, 6, 6))
        dw = rng.standard_normal((ci, 1, k, k))
        pw1 = rng.standard_normal((ci, ci, 1, 1))
        pw2 = rng.standard_normal((ci, ci, 1, 1))
        stepwise = T.conv2d(T.conv2d(T.conv2d(t(x), t(dw), pad=1, groups=ci),
                                     t(pw1)), t(pw2))
        mix = pw2[:, :, 0, 0] @ pw1[:, :, 0, 0]
        dense = np.einsum("oi,ikl->oikl", mix, dw[:, 0])
        direct = T.conv2d(t(x), t(dense), pad=1)
        np.testing.assert_allclose(stepwise.data, direct.data, atol=1e-6)


class TestDeterminism:
    def test_forward_bitwise_deterministic(self):
        def run():
            rng = np.random.default_rng(99)
            x = t(rng.standard_normal((2, 3, 8, 8)))
            w = t(rng.standard_normal((4, 3, 3, 3)))
            out = T.conv2d(x, w, pad=1)
            out = T.gelu(out)
            out = T.pool2d(out, "max", 2)
            return out.data.tobytes()

        assert run() == run()

    def test_depthwise_f32_forward_and_gradients_bitwise_repeatable(self):
        def run():
            rng = np.random.default_rng(7)
            x = Tensor(rng.standard_normal((2, 8, 19, 21)), requires_grad=True, dtype="f32")
            w = Tensor(rng.standard_normal((8, 1, 7, 7)), requires_grad=True, dtype="f32")
            r = Tensor(rng.standard_normal((2, 8, 19, 21)), dtype="f32")
            with T.record():
                out = T.conv2d(x, w, pad=3, groups=8)
                T.backward(T.tsum(T.mul(out, r)))
            return out.data.tobytes(), x.grad.tobytes(), w.grad.tobytes()

        assert run() == run()
