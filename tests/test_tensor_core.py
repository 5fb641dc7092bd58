"""Tests of the Tensor class itself: graph mechanics, grad flags, shapes."""

import numpy as np
import pytest

from repro.tensor import functional as F
from repro.tensor.tensor import Tensor, as_tensor, is_grad_enabled, no_grad, unbroadcast


class TestConstruction:
    def test_float_data_is_float64(self):
        t = Tensor([1.0, 2.0])
        assert t.dtype == np.float64

    def test_int_data_preserved(self):
        t = Tensor(np.array([1, 2, 3]))
        assert t.dtype.kind == "i"

    def test_int_tensor_cannot_require_grad(self):
        with pytest.raises(ValueError):
            Tensor(np.array([1, 2]), requires_grad=True)

    def test_bool_data_allowed(self):
        t = Tensor(np.array([True, False]))
        assert t.data.dtype.kind == "b"

    def test_string_rejected(self):
        with pytest.raises(TypeError):
            Tensor(np.array(["a"]))

    def test_shape_ndim_size(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.shape == (2, 3, 4)
        assert t.ndim == 3
        assert t.size == 24

    def test_repr_mentions_grad(self):
        t = Tensor([1.0], requires_grad=True)
        assert "requires_grad" in repr(t)

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t

    def test_as_tensor_wraps_scalars(self):
        t = as_tensor(3.0)
        assert isinstance(t, Tensor)
        assert t.data == 3.0


class TestAutogradMechanics:
    def test_backward_requires_grad(self):
        t = Tensor([1.0])
        with pytest.raises(RuntimeError):
            t.backward()

    def test_backward_non_scalar_needs_grad_arg(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        out = F.mul(t, 2.0)
        with pytest.raises(RuntimeError):
            out.backward()

    def test_backward_with_explicit_grad(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        out = F.mul(t, 3.0)
        out.backward(np.array([1.0, 1.0]))
        assert np.allclose(t.grad, [3.0, 3.0])

    def test_grad_accumulates_across_backwards(self):
        t = Tensor([2.0], requires_grad=True)
        F.sum(F.mul(t, t)).backward()
        first = t.grad.copy()
        F.sum(F.mul(t, t)).backward()
        assert np.allclose(t.grad, 2 * first)

    def test_zero_grad(self):
        t = Tensor([2.0], requires_grad=True)
        F.sum(t).backward()
        t.zero_grad()
        assert t.grad is None

    def test_diamond_graph_gradient(self):
        # y = x*x + x*x should give dy/dx = 4x
        x = Tensor([3.0], requires_grad=True)
        a = F.mul(x, x)
        b = F.mul(x, x)
        F.sum(F.add(a, b)).backward()
        assert np.allclose(x.grad, [12.0])

    def test_reused_node_gradient(self):
        # y = (x + x) * x = 2x^2, dy/dx = 4x
        x = Tensor([5.0], requires_grad=True)
        s = F.add(x, x)
        F.sum(F.mul(s, x)).backward()
        assert np.allclose(x.grad, [20.0])

    def test_deep_chain_no_recursion_error(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(2000):
            y = F.add(y, 0.001)
        F.sum(y).backward()
        assert np.allclose(x.grad, [1.0])

    def test_no_grad_context(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            assert not is_grad_enabled()
            y = F.mul(x, 2.0)
        assert is_grad_enabled()
        assert not y.requires_grad

    def test_no_grad_nesting(self):
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_requires_grad_propagates(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([1.0])
        assert F.add(a, b).requires_grad
        assert not F.add(b, b).requires_grad


class TestUnbroadcast:
    def test_identity_when_shapes_match(self):
        g = np.ones((2, 3))
        assert unbroadcast(g, (2, 3)).shape == (2, 3)

    def test_sums_leading_dims(self):
        g = np.ones((4, 2, 3))
        out = unbroadcast(g, (2, 3))
        assert out.shape == (2, 3)
        assert np.allclose(out, 4.0)

    def test_sums_broadcast_dims(self):
        g = np.ones((2, 3))
        out = unbroadcast(g, (1, 3))
        assert out.shape == (1, 3)
        assert np.allclose(out, 2.0)

    def test_scalar_target(self):
        g = np.ones((5, 4))
        out = unbroadcast(g, ())
        assert out.shape == ()
        assert out == 20.0


class TestOperatorOverloads:
    def test_add_radd(self):
        t = Tensor([1.0])
        assert (t + 1.0).data[0] == 2.0
        assert (1.0 + t).data[0] == 2.0

    def test_sub_rsub(self):
        t = Tensor([3.0])
        assert (t - 1.0).data[0] == 2.0
        assert (5.0 - t).data[0] == 2.0

    def test_mul_div(self):
        t = Tensor([4.0])
        assert (t * 2.0).data[0] == 8.0
        assert (t / 2.0).data[0] == 2.0
        assert (8.0 / t).data[0] == 2.0

    def test_neg_pow_matmul(self):
        t = Tensor([[1.0, 2.0]])
        assert float(F.sum(-t).data) == -3.0
        assert np.allclose((t ** 2).data, [[1.0, 4.0]])
        m = Tensor(np.eye(2))
        assert np.allclose((t @ m).data, t.data)

    def test_getitem(self):
        t = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        row = t[1]
        assert np.allclose(row.data, [3.0, 4.0, 5.0])
        F.sum(row).backward()
        assert np.allclose(t.grad, [[0, 0, 0], [1, 1, 1]])

    def test_transpose_property(self):
        t = Tensor(np.arange(6.0).reshape(2, 3))
        assert t.T.shape == (3, 2)

    def test_len(self):
        assert len(Tensor(np.zeros((4, 2)))) == 4

    def test_method_sum_mean_max(self):
        t = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert float(t.sum().data) == 10.0
        assert float(t.mean().data) == 2.5
        assert float(t.max().data) == 4.0

    def test_reshape_and_transpose_methods(self):
        t = Tensor(np.arange(6.0))
        assert t.reshape(2, 3).shape == (2, 3)
        assert t.reshape((3, 2)).shape == (3, 2)
        m = Tensor(np.zeros((2, 3, 4)))
        assert m.transpose(2, 0, 1).shape == (4, 2, 3)
        assert m.swapaxes(0, 2).shape == (4, 3, 2)
