"""Forward-value tests for the tensor ops, against hand-derived and
brute-force oracles."""

import numpy as np
import pytest

from muvit import tensor as T
from muvit.tensor import ConfigError, Tensor

from conftest import conv2d_reference


def t(arr, dtype="f64"):
    return Tensor(np.asarray(arr, dtype=np.float64), dtype=dtype)


CONV_CASES = [
    dict(n=2, ci=3, co=4, h=6, w=7, k=3, stride=1, pad=1, groups=1),
    dict(n=1, ci=4, co=4, h=5, w=5, k=3, stride=1, pad=2, groups=4),
    dict(n=2, ci=4, co=6, h=6, w=6, k=2, stride=2, pad=0, groups=2),
    dict(n=1, ci=2, co=5, h=8, w=8, k=1, stride=1, pad=0, groups=1),
    dict(n=1, ci=3, co=3, h=9, w=9, k=7, stride=1, pad=3, groups=3),
    # dense path: padding, shapes and strides the model does not use
    dict(n=2, ci=3, co=4, h=6, w=7, k=3, stride=1, pad=0, groups=1),
    dict(n=1, ci=2, co=3, h=5, w=5, k=3, stride=1, pad=2, groups=1),
    dict(n=1, ci=3, co=2, h=4, w=9, k=3, stride=1, pad=1, groups=1),
    dict(n=1, ci=2, co=3, h=7, w=6, k=5, stride=1, pad=2, groups=1),
    dict(n=2, ci=3, co=4, h=7, w=9, k=3, stride=2, pad=1, groups=1),
    dict(n=1, ci=3, co=2, h=4, w=5, k=1, stride=1, pad=1, groups=1),
    dict(n=3, ci=2, co=3, h=5, w=4, k=3, stride=1, pad=1, groups=1),
    # depthwise path: batches, tile edges, padding and strides; kw sets a
    # kernel width other than k
    dict(n=3, ci=4, co=4, h=6, w=7, k=3, stride=1, pad=1, groups=4),
    dict(n=2, ci=3, co=3, h=4, w=4, k=9, stride=1, pad=4, groups=3),
    dict(n=2, ci=2, co=2, h=5, w=19, k=7, stride=1, pad=3, groups=2),
    dict(n=2, ci=3, co=3, h=6, w=20, k=3, stride=1, pad=0, groups=3),
    dict(n=2, ci=2, co=2, h=7, w=9, k=3, stride=2, pad=1, groups=2),
    dict(n=2, ci=3, co=3, h=6, w=8, k=2, stride=2, pad=0, groups=3),
    dict(n=2, ci=2, co=2, h=5, w=20, k=3, kw=5, stride=1, pad=1, groups=2),
]


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

    @pytest.mark.parametrize("case", CONV_CASES)
    def test_against_bruteforce(self, rng, case):
        x, w, b = conv_case_arrays(rng, case)
        ref = conv2d_reference(x, w, b, case["stride"], case["pad"], case["groups"])
        out = T.conv2d(t(x), t(w), t(b), case["stride"], case["pad"], case["groups"])
        np.testing.assert_allclose(out.data, ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("case", CONV_CASES)
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

    def test_nonintegral_output_rejected(self):
        with pytest.raises(ConfigError):
            T.conv2d(t(np.ones((1, 1, 6, 6))), t(np.ones((1, 1, 3, 3))), stride=2, pad=1)


class TestConvTranspose2d:
    def test_scatter_one_element(self):
        out = T.conv_transpose2d(t([[[[1.0]]]]), t(np.ones((1, 1, 2, 2))), stride=2)
        np.testing.assert_array_equal(out.data, np.ones((1, 1, 2, 2)))

    def test_zero_weights(self):
        out = T.conv_transpose2d(t(np.ones((1, 2, 3, 3))), t(np.zeros((2, 4, 2, 2))), stride=2)
        assert out.shape == (1, 4, 6, 6)
        assert np.all(out.data == 0.0)

    def test_nonoverlapping_scatter(self):
        out = T.conv_transpose2d(t(np.ones((1, 1, 2, 2))), t(np.ones((1, 1, 2, 2))), stride=2)
        np.testing.assert_array_equal(out.data, np.ones((1, 1, 4, 4)))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            T.conv_transpose2d(t(np.ones((1, 3, 2, 2))), t(np.ones((2, 2, 2, 2))), stride=2)


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
        # values {1, 3}: mean 2, biased std 1 -> outputs -1, +1 as eps -> 0
        x = np.zeros((2, 1, 1, 1))
        x[0, 0] = 1.0
        x[1, 0] = 3.0
        out = T.batchnorm2d(t(x), t(np.ones(1)), t(np.zeros(1)), None,
                            eps=1e-12, training=True)
        np.testing.assert_allclose(out.data.reshape(-1), [-1.0, 1.0], atol=1e-6)

    def test_bn_eval_uses_running_stats(self):
        running = (np.array([2.0]), np.array([4.0]))
        x = t(np.full((1, 1, 2, 2), 6.0))
        out = T.batchnorm2d(x, t(np.ones(1)), t(np.zeros(1)), running,
                            eps=0.0, training=False)
        np.testing.assert_allclose(out.data, 2.0)  # (6-2)/sqrt(4)

    def test_bn_channel_mismatch(self):
        with pytest.raises(ConfigError):
            T.batchnorm2d(t(np.ones((1, 3, 2, 2))), t(np.ones(2)), t(np.zeros(2)),
                          None, training=True)

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

    def test_gelu_at_one(self):
        # x * Phi(x) at 1: Phi(1) = 0.8413447 from the standard normal CDF
        assert abs(T.gelu(t([1.0])).data[0] - 0.841345) < 1e-5

    def test_softmax_rows_sum_to_one(self, rng):
        x = t(rng.standard_normal((4, 7, 9)) * 3)
        s = T.softmax(x).data
        assert np.all(s >= 0)
        np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-6)

    def test_activation_dispatch(self):
        assert T.activation(t([1.0]), "relu").data[0] == 1.0
        with pytest.raises(ConfigError):
            T.activation(t([1.0]), "swish")


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
