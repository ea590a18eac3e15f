"""Op-by-op correctness and gradient checks for the autograd engine."""

import numpy as np
import pytest

from repro.nn import Tensor, check_gradients, concat, softmax, squared_distance, stack


def t(data, grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


class TestForwardValues:
    def test_add(self):
        out = t([1.0, 2.0]) + t([3.0, 4.0])
        np.testing.assert_array_equal(out.data, [4.0, 6.0])

    def test_scalar_coercion(self):
        out = t([1.0]) + 2.0
        np.testing.assert_array_equal(out.data, [3.0])
        out = 2.0 * t([3.0])
        np.testing.assert_array_equal(out.data, [6.0])

    def test_sub_rsub(self):
        np.testing.assert_array_equal((5.0 - t([2.0])).data, [3.0])

    def test_div(self):
        np.testing.assert_array_equal((t([6.0]) / 2.0).data, [3.0])
        np.testing.assert_array_equal((6.0 / t([2.0])).data, [3.0])

    def test_matmul_values(self):
        a, b = t([[1.0, 2.0]]), t([[3.0], [4.0]])
        np.testing.assert_array_equal((a @ b).data, [[11.0]])

    def test_matmul_requires_2d(self):
        with pytest.raises(ValueError):
            t([1.0]) @ t([1.0])

    def test_pow_scalar_only(self):
        with pytest.raises(TypeError):
            t([2.0]) ** t([2.0])

    def test_relu(self):
        np.testing.assert_array_equal(t([-1.0, 2.0]).relu().data, [0.0, 2.0])

    def test_sigmoid_extremes_stable(self):
        out = t([-800.0, 0.0, 800.0]).sigmoid().data
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_sigmoid_matches_expit_oracle(self, dtype):
        """The tanh form of the sigmoid stays within one ulp of 1.0 of
        ``scipy.special.expit`` over the whole range, without overflow."""
        expit = pytest.importorskip("scipy.special").expit
        grid = np.concatenate(
            [np.linspace(-800.0, 800.0, 200_001), [-np.inf, np.inf]]
        ).astype(dtype)
        with np.errstate(all="raise"):
            out = Tensor(grid).sigmoid().data
        assert out.dtype == dtype
        deviation = np.abs(out.astype(np.float64) - expit(grid).astype(np.float64))
        assert deviation.max() <= np.finfo(dtype).eps

    def test_reshape_and_transpose(self):
        x = t(np.arange(6.0))
        assert x.reshape(2, 3).shape == (2, 3)
        assert x.reshape((3, 2)).transpose().shape == (2, 3)

    def test_sum_axis_keepdims(self):
        x = t(np.ones((2, 3)))
        assert x.sum(axis=1).shape == (2,)
        assert x.sum(axis=1, keepdims=True).shape == (2, 1)
        assert x.sum().item() == 6.0

    def test_mean_matches_numpy(self):
        data = np.arange(12.0).reshape(3, 4)
        np.testing.assert_allclose(t(data).mean(axis=0).data, data.mean(axis=0))

    def test_getitem_fancy(self):
        x = t(np.arange(12.0).reshape(4, 3))
        rows = x[np.array([0, 2])]
        np.testing.assert_array_equal(rows.data, [[0, 1, 2], [6, 7, 8]])

    def test_concat_stack(self):
        a, b = t([[1.0]]), t([[2.0]])
        np.testing.assert_array_equal(concat([a, b], axis=1).data, [[1.0, 2.0]])
        np.testing.assert_array_equal(stack([a, b], axis=0).data, [[[1.0]], [[2.0]]])

    def test_softmax_rows_sum_to_one(self):
        out = softmax(t(np.random.default_rng(0).normal(size=(4, 5))), axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(4))

    def test_softmax_stable_under_large_logits(self):
        out = softmax(t([1000.0, 1000.0]), axis=0)
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_squared_distance(self):
        d = squared_distance(t([[0.0, 0.0]]), t([[3.0, 4.0]]))
        np.testing.assert_allclose(d.data, [25.0])


class TestBackwardMechanics:
    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_nonscalar_needs_gradient(self):
        x = t([1.0, 2.0])
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_backward_explicit_gradient(self):
        x = t([1.0, 2.0])
        (x * 3.0).backward(np.array([1.0, 1.0]))
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])

    def test_gradient_shape_mismatch(self):
        x = t([1.0, 2.0])
        with pytest.raises(ValueError):
            (x * 3.0).backward(np.array([1.0]))

    def test_grad_accumulates_across_backwards(self):
        x = t([2.0])
        (x * 1.0).sum().backward()
        (x * 1.0).sum().backward()
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_zero_grad(self):
        x = t([2.0])
        (x * x).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_detach_cuts_graph(self):
        x = t([2.0])
        y = x.detach() * x
        y.sum().backward()
        np.testing.assert_array_equal(x.grad, [2.0])  # only one path

    def test_constant_operands_get_no_grad(self):
        const = Tensor([1.0])
        x = t([2.0])
        (x + const).sum().backward()
        assert const.grad is None

    def test_reused_node_accumulates(self):
        x = t([3.0])
        y = x * x  # x used twice
        y.sum().backward()
        np.testing.assert_array_equal(x.grad, [6.0])

    def test_deep_chain_no_recursion_error(self):
        x = t([1.0])
        y = x
        for _ in range(3000):
            y = y * 1.0
        y.sum().backward()  # iterative topo sort must survive depth 3000
        np.testing.assert_array_equal(x.grad, [1.0])


class TestGradChecks:
    """Central-difference validation of every differentiable op."""

    rng = np.random.default_rng(7)

    def check(self, fn, *tensors):
        worst = check_gradients(fn, list(tensors))
        assert worst < 1e-5

    def test_add_broadcast(self):
        a, b = t(self.rng.normal(size=(3, 4))), t(self.rng.normal(size=(4,)))
        self.check(lambda: ((a + b) ** 2).sum(), a, b)

    def test_mul_broadcast(self):
        a, b = t(self.rng.normal(size=(2, 3))), t(self.rng.normal(size=(2, 1)))
        self.check(lambda: (a * b).sum(), a, b)

    def test_div(self):
        a = t(self.rng.normal(size=(3,)) + 3.0)
        b = t(self.rng.normal(size=(3,)) + 3.0)
        self.check(lambda: (a / b).sum(), a, b)

    def test_pow(self):
        a = t(np.abs(self.rng.normal(size=(3,))) + 0.5)
        self.check(lambda: (a**1.7).sum(), a)

    def test_matmul(self):
        a, b = t(self.rng.normal(size=(3, 4))), t(self.rng.normal(size=(4, 2)))
        self.check(lambda: (a @ b).sum(), a, b)

    def test_exp_log(self):
        a = t(np.abs(self.rng.normal(size=(4,))) + 0.5)
        self.check(lambda: (a.exp().log() * a).sum(), a)

    def test_tanh_sigmoid(self):
        a = t(self.rng.normal(size=(5,)))
        self.check(lambda: (a.tanh() * a.sigmoid()).sum(), a)

    def test_relu_away_from_kink(self):
        a = t(self.rng.normal(size=(6,)) + 3.0)  # keep clear of 0
        self.check(lambda: (a.relu() ** 2).sum(), a)

    def test_sum_mean(self):
        a = t(self.rng.normal(size=(3, 4)))
        self.check(lambda: (a.sum(axis=0) * a.mean(axis=0)).sum(), a)

    def test_getitem_slice(self):
        a = t(self.rng.normal(size=(4, 6)))
        self.check(lambda: (a[:, 1:4] ** 2).sum(), a)

    def test_getitem_fancy_with_duplicates(self):
        a = t(self.rng.normal(size=(5, 3)))
        idx = np.array([0, 2, 2, 4])
        self.check(lambda: (a[idx] ** 2).sum(), a)

    def test_reshape_transpose(self):
        a = t(self.rng.normal(size=(3, 4)))
        self.check(lambda: (a.reshape(4, 3).transpose() * a).sum(), a)

    def test_concat(self):
        a, b = t(self.rng.normal(size=(2, 3))), t(self.rng.normal(size=(2, 2)))
        self.check(lambda: (concat([a, b], axis=1) ** 2).sum(), a, b)

    def test_stack(self):
        a, b = t(self.rng.normal(size=(2, 3))), t(self.rng.normal(size=(2, 3)))
        self.check(lambda: (stack([a, b], axis=0) ** 2).sum(), a, b)

    def test_softmax(self):
        a = t(self.rng.normal(size=(3, 5)))
        w = Tensor(self.rng.normal(size=(3, 5)))
        self.check(lambda: (softmax(a, axis=1) * w).sum(), a)

    def test_squared_distance_both_sides(self):
        a, b = t(self.rng.normal(size=(4, 3))), t(self.rng.normal(size=(1, 3)))
        self.check(lambda: squared_distance(a, b).sum(), a, b)

    def test_3d_broadcast_chain(self):
        a = t(self.rng.normal(size=(2, 3, 4)))
        b = t(self.rng.normal(size=(2, 1, 4)))
        self.check(lambda: (((a - b) ** 2).sum(axis=2) ** 1.5).sum(), a, b)
