"""Reverse-mode autodiff semantics and finite-difference gradient checks."""

import numpy as np
import pytest

from muvit import tensor as T
from muvit.tensor import Tensor, UsageError, VerificationError, backward, gradcheck, record
from muvit.verify import run_suite


def f64(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


class TestBackwardSemantics:
    def test_sum_of_squares(self, rng):
        x = f64(rng.standard_normal((3, 4)))
        with record():
            backward(T.tsum(T.mul(x, x)))
        np.testing.assert_allclose(x.grad, 2 * x.data, atol=1e-12)

    def test_relu_dead_region(self):
        x = f64(-np.ones((2, 2)))
        with record():
            backward(T.tsum(T.relu(x)))
        np.testing.assert_array_equal(x.grad, np.zeros((2, 2)))

    def test_chain_through_identity_conv(self, rng):
        x = f64(rng.standard_normal((1, 1, 4, 4)))
        w = Tensor(np.ones((1, 1, 1, 1)))
        up = rng.standard_normal((1, 1, 4, 4))
        with record():
            out = T.conv2d(x, w)
            backward(T.tsum(T.mul(out, Tensor(up))))
        np.testing.assert_allclose(x.grad, up, atol=1e-12)

    def test_repeated_backward_accumulates(self, rng):
        x = f64(rng.standard_normal(5))
        with record():
            loss = T.tsum(T.mul(x, x))
            backward(loss)
            g1 = x.grad.copy()
            backward(loss)
        np.testing.assert_allclose(x.grad, 2 * g1, atol=1e-12)

    def test_cleared_grads_reset(self, rng):
        x = f64(rng.standard_normal(5))
        with record():
            loss = T.tsum(T.mul(x, x))
            backward(loss)
            x.zero_grad()
            backward(loss)
        np.testing.assert_allclose(x.grad, 2 * x.data, atol=1e-12)

    def test_non_scalar_loss_rejected(self, rng):
        x = f64(rng.standard_normal(5))
        with record():
            y = T.mul(x, x)
            with pytest.raises(UsageError):
                backward(y)

    def test_unrecorded_loss_rejected(self, rng):
        x = f64(rng.standard_normal(5))
        y = T.tsum(x)  # no active graph
        with pytest.raises(UsageError):
            backward(y)

    def test_fanout_accumulation(self, rng):
        x = f64(rng.standard_normal(4))
        with record():
            backward(T.add(T.tsum(T.mul(x, x)), T.tsum(x)))
        np.testing.assert_allclose(x.grad, 2 * x.data + 1.0, atol=1e-12)

    def test_fan_in_adds_in_sweep_order(self):
        # y feeds a, b and c; the reverse sweep meets c, then b, then a, so
        # d(y) = (g_c + g_b) + g_a, which differs from g_c + (g_b + g_a) in f32
        x = Tensor(np.ones(1, dtype=np.float32), requires_grad=True)
        tiny = 2.0 ** -24
        with record():
            y = T.scale(x, 1.0)
            a, b, c = T.scale(y, 1.0), T.scale(y, tiny), T.scale(y, tiny)
            backward(T.tsum(T.add(T.add(a, b), c)))
        assert x.grad.tobytes() == np.float32([1.0 + 2 * tiny]).tobytes()

    def test_no_grad_suppresses_recording(self, rng):
        x = f64(rng.standard_normal(4))
        with record() as g:
            with T.no_grad():
                T.tsum(T.mul(x, x))
        assert len(g.nodes) == 0


class TestGradcheckHarness:
    def test_requires_f64(self, rng):
        x = Tensor(rng.standard_normal(4).astype(np.float32), requires_grad=True)
        with pytest.raises(UsageError):
            gradcheck(lambda a: T.tsum(a), [x])

    def test_detects_wrong_gradient(self, rng):
        # a deliberately broken op: forward x^2, backward claims 3x
        def bad_square(a):
            out = T._out("bad", (a,), a.data * a.data, lambda g: (3.0 * a.data * g,))
            return T.tsum(out)

        x = f64(rng.standard_normal(4) + 2.0)
        err = gradcheck(bad_square, [x])
        assert err > 0.1

    def test_nonfinite_flagged(self):
        x = f64(np.array([1.0]))

        def nan_fn(a):
            return T._out("nan", (a,), np.array(np.nan), lambda g: (g,))

        with pytest.raises(VerificationError):
            gradcheck(nan_fn, [x])


class TestGradcheckSuites:
    def test_ops_suite(self):
        for name, err in run_suite("ops"):
            assert err <= 1e-5, f"op gradcheck '{name}' at {err:.3e}"

    def test_blocks_suite(self):
        for name, err in run_suite("blocks"):
            assert err <= 1e-5, f"block gradcheck '{name}' at {err:.3e}"

    def test_model_suite(self):
        for name, err in run_suite("model"):
            assert err <= 1e-5, f"model gradcheck '{name}' at {err:.3e}"
