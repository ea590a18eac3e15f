"""The precision policy at the nn layer.

Covers the policy registry itself, dtype preservation through the autograd
engine, float32 parameter allocation across every layer, the fused LSTM
kernel in single precision, and the loosened-tolerance gradchecks that
validate the fast mode (the float64 suites elsewhere remain the bitwise
reference)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    FLOAT32,
    FLOAT64,
    PRECISIONS,
    Adam,
    BatchNorm1d,
    Embedding,
    Linear,
    Precision,
    SGD,
    StackedLSTM,
    Tensor,
    UnknownPrecisionError,
    check_gradients,
    get_precision,
)
from repro.nn.tensor import softmax


class TestPolicyRegistry:
    def test_registered_policies(self):
        assert set(PRECISIONS) == {"float64", "float32"}
        assert FLOAT64.real == np.float64
        assert FLOAT32.real == np.float32

    def test_get_precision_resolves_names_and_instances(self):
        assert get_precision("float64") is FLOAT64
        assert get_precision("float32") is FLOAT32
        assert get_precision(FLOAT32) is FLOAT32

    def test_unknown_name_lists_valid_values(self):
        with pytest.raises(UnknownPrecisionError) as err:
            get_precision("float16")
        assert "float64" in str(err.value) and "float32" in str(err.value)
        # Catchable under both historical exception disciplines.
        assert isinstance(err.value, KeyError)
        assert isinstance(err.value, ValueError)

    def test_index_dtype_overflow_guard(self):
        assert FLOAT32.index_dtype(1000) == np.int32
        assert FLOAT32.index_dtype(2**31 - 1) == np.int32
        assert FLOAT32.index_dtype(2**31) == np.int64
        assert FLOAT64.index_dtype(1000) == np.int32  # exact either way

    def test_float32_tolerances_are_looser(self):
        assert FLOAT32.gradcheck_atol > FLOAT64.gradcheck_atol
        assert FLOAT32.loss_rtol > FLOAT64.loss_rtol

    def test_policy_is_frozen(self):
        with pytest.raises(AttributeError):
            FLOAT32.name = "other"

    def test_policy_is_dataclass_with_name(self):
        assert isinstance(FLOAT32, Precision)
        assert FLOAT32.name == "float32"


class TestTensorDtypePreservation:
    def test_float32_arrays_keep_their_dtype(self):
        t = Tensor(np.ones((2, 3), dtype=np.float32))
        assert t.dtype == np.float32

    def test_non_float_inputs_coerce_to_default_float64(self):
        assert Tensor([1, 2, 3]).dtype == np.float64
        assert Tensor(np.arange(3)).dtype == np.float64
        assert Tensor(2.5).dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_arithmetic_preserves_dtype(self, dtype):
        a = Tensor(np.ones((2, 2), dtype=dtype), requires_grad=True)
        b = Tensor(np.full((2, 2), 2.0, dtype=dtype))
        for out in (a + b, a - b, a * b, a / b, a @ b, -a, a**2):
            assert out.dtype == dtype, out

    def test_python_scalars_do_not_promote(self):
        a = Tensor(np.ones((2, 2), dtype=np.float32))
        for out in (a + 1.0, 1.0 + a, a - 1.0, 1.0 - a, a * 2.0, a / 2.0, 2.0 / a):
            assert out.dtype == np.float32, out

    def test_plain_float64_operand_adopts_tensor_dtype(self):
        a = Tensor(np.ones(4, dtype=np.float32))
        out = a * np.full(4, 2.0)  # float64 ndarray operand
        assert out.dtype == np.float32

    def test_nonlinearities_and_reductions_preserve_dtype(self):
        a = Tensor(np.linspace(-2, 2, 8, dtype=np.float32).reshape(2, 4))
        for out in (
            a.exp(),
            (a * a + 1.0).log(),
            a.tanh(),
            a.sigmoid(),
            a.relu(),
            a.sum(),
            a.mean(axis=1),
            softmax(a, axis=1),
        ):
            assert out.dtype == np.float32, out

    def test_backward_gradients_match_parameter_dtype(self):
        a = Tensor(np.ones((3, 2), dtype=np.float32), requires_grad=True)
        loss = (a * a).sum()
        assert loss.dtype == np.float32
        loss.backward()
        assert a.grad.dtype == np.float32


class TestFloat32Layers:
    def test_layer_parameters_allocate_in_policy_dtype(self):
        rng = np.random.default_rng(0)
        lin = Linear(4, 3, rng=rng, dtype=np.float32)
        emb = Embedding(10, 4, rng=rng, dtype=np.float32)
        lstm = StackedLSTM(4, 4, 2, rng=rng, dtype=np.float32)
        bn = BatchNorm1d(4, dtype=np.float32)
        for module in (lin, emb, lstm, bn):
            for param in module.parameters():
                assert param.dtype == np.float32
        assert bn.running_mean.dtype == np.float32
        assert bn.running_var.dtype == np.float32

    def test_float32_init_narrows_the_same_float64_draws(self):
        """Same RNG stream, values equal after rounding — so a float32 model
        is the narrowed twin of the float64 one, not a different model."""
        w64 = Linear(6, 5, rng=np.random.default_rng(3)).weight.data
        w32 = Linear(6, 5, rng=np.random.default_rng(3), dtype=np.float32).weight.data
        np.testing.assert_array_equal(w32, w64.astype(np.float32))

    def test_forward_stays_float32_end_to_end(self):
        rng = np.random.default_rng(1)
        lstm = StackedLSTM(4, 4, 2, rng=rng, dtype=np.float32)
        bn = BatchNorm1d(4, dtype=np.float32)
        x = Tensor(rng.standard_normal((3, 5, 4)).astype(np.float32))
        mask = np.ones((3, 5), dtype=np.float32)
        out = bn(lstm.fused(x, mask=mask)).relu()
        assert out.dtype == np.float32

    def test_fused_matches_stepwise_in_float32(self):
        rng = np.random.default_rng(2)
        lstm = StackedLSTM(3, 3, 2, rng=rng, dtype=np.float32)
        x_data = rng.standard_normal((4, 6, 3)).astype(np.float32)
        mask = (rng.random((4, 6)) < 0.8).astype(np.float32)
        mask[:, 0] = 1.0
        fused = lstm.fused(Tensor(x_data), mask=mask)
        steps = [Tensor(x_data[:, t]) for t in range(6)]
        _, ref = lstm(steps, mask=mask.T)
        assert fused.dtype == np.float32 and ref.dtype == np.float32
        np.testing.assert_allclose(fused.data, ref.data, rtol=1e-5, atol=1e-6)

    def test_fused_matches_stepwise_in_float32_production_shape(self):
        """Hidden size 32, a prefix mask: the shape an EHNA fit sends."""
        rng = np.random.default_rng(5)
        lstm = StackedLSTM(32, 32, 2, rng=rng, dtype=np.float32)
        x_data = rng.standard_normal((64, 7, 32)).astype(np.float32)
        lengths = rng.integers(1, 8, size=64)
        mask = (np.arange(7) < lengths[:, None]).astype(np.float32)
        fused = lstm.fused(Tensor(x_data), mask=mask)
        steps = [Tensor(x_data[:, t]) for t in range(7)]
        _, ref = lstm(steps, mask=mask.T)
        assert fused.dtype == np.float32
        np.testing.assert_allclose(fused.data, ref.data, rtol=1e-5, atol=1e-6)

    def test_optimizers_keep_float32_state(self):
        rng = np.random.default_rng(4)
        lin = Linear(4, 2, rng=rng, dtype=np.float32)
        for opt in (Adam(lin.parameters(), lr=1e-2), SGD(lin.parameters(), momentum=0.5)):
            x = Tensor(rng.standard_normal((5, 4)).astype(np.float32))
            loss = (lin(x) * lin(x)).sum()
            opt.zero_grad()
            loss.backward()
            opt.step()
            assert lin.weight.data.dtype == np.float32
            state = opt._m if isinstance(opt, Adam) else opt._velocity
            assert all(arr.dtype == np.float32 for arr in state)


class TestFloat32Gradchecks:
    """The fast mode's validation: gradients still match finite differences,
    under the policy's loosened tolerances."""

    def _params(self, module):
        return [p for p in module.parameters()]

    def test_linear_gradcheck(self):
        rng = np.random.default_rng(10)
        lin = Linear(4, 3, rng=rng, dtype=np.float32)
        x = Tensor(rng.standard_normal((5, 4)).astype(np.float32))

        def fn():
            out = lin(x)
            return (out * out).mean()

        check_gradients(fn, self._params(lin), precision="float32")

    def test_stacked_lstm_fused_gradcheck(self):
        rng = np.random.default_rng(11)
        lstm = StackedLSTM(3, 3, 2, rng=rng, dtype=np.float32)
        x_data = rng.standard_normal((2, 4, 3)).astype(np.float32)
        mask = np.ones((2, 4), dtype=np.float32)
        mask[0, 2:] = 0.0
        x = Tensor(x_data, requires_grad=True)

        def fn():
            return (lstm.fused(x, mask=mask) ** 2).sum()

        check_gradients(fn, [x, *self._params(lstm)], precision=FLOAT32)

    def test_batchnorm_gradcheck(self):
        rng = np.random.default_rng(12)
        bn = BatchNorm1d(3, dtype=np.float32)
        x = Tensor(rng.standard_normal((6, 3)).astype(np.float32), requires_grad=True)

        def fn():
            out = bn(x)
            return (out * out).mean()

        check_gradients(fn, [x, bn.gamma, bn.beta], precision="float32")
