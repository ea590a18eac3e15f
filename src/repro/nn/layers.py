"""Neural-network layers on top of the autograd engine.

Implements exactly the components Algorithm 1 of the paper requires:
``Embedding`` (the node-embedding table ``e_v``), ``Linear`` (the readout
``W·[H||e_x]``), ``LSTM``/``StackedLSTM`` (the two aggregators) and
``BatchNorm1d`` (the BN of lines 4 and 6).
"""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.tensor import Tensor, apply_op, concat
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive


class Module:
    """Base class: parameter discovery, grad clearing, train/eval mode."""

    def __init__(self) -> None:
        self.training = True

    def parameters(self) -> list[Tensor]:
        """All trainable tensors of this module and its submodules."""
        params: list[Tensor] = []
        seen: set[int] = set()
        for value in self.__dict__.values():
            for p in _collect(value):
                if id(p) not in seen:
                    seen.add(id(p))
                    params.append(p)
        return params

    def modules(self) -> list["Module"]:
        """This module and all nested submodules."""
        found: list[Module] = [self]
        for value in self.__dict__.values():
            found.extend(_collect_modules(value))
        return found

    def zero_grad(self) -> None:
        """Clear gradients of every parameter."""
        for p in self.parameters():
            p.zero_grad()

    def train(self) -> "Module":
        """Switch to training mode (affects BatchNorm)."""
        for m in self.modules():
            m.training = True
        return self

    def eval(self) -> "Module":
        """Switch to inference mode."""
        for m in self.modules():
            m.training = False
        return self

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(p.data.size for p in self.parameters())


def _collect(value) -> list[Tensor]:
    if isinstance(value, Tensor) and value.requires_grad:
        return [value]
    if isinstance(value, Module):
        return value.parameters()
    if isinstance(value, (list, tuple)):
        out: list[Tensor] = []
        for item in value:
            out.extend(_collect(item))
        return out
    return []


def _collect_modules(value) -> list["Module"]:
    if isinstance(value, Module):
        return value.modules()
    if isinstance(value, (list, tuple)):
        out: list[Module] = []
        for item in value:
            out.extend(_collect_modules(item))
        return out
    return []


class Linear(Module):
    """Affine map ``y = x W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng=None,
        dtype=np.float64,
    ):
        super().__init__()
        check_positive("in_features", in_features)
        check_positive("out_features", out_features)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = init.xavier_uniform((in_features, out_features), rng, dtype=dtype)
        self.bias = init.zeros((out_features,), dtype=dtype) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Lookup table of node embeddings ``e_v``.

    The default initialization bound ``1/sqrt(dim)`` gives roughly unit-norm
    rows, so Euclidean distances between fresh embeddings are O(1) — the
    regime the attention (Eq. 3/4) and margin loss (Eq. 5-7) operate in.
    (word2vec-style models instead want the tiny ``0.5/dim`` bound; pass it
    via ``bound``.)
    """

    def __init__(
        self,
        num_embeddings: int,
        dim: int,
        rng=None,
        bound: float | None = None,
        dtype=np.float64,
    ):
        super().__init__()
        check_positive("num_embeddings", num_embeddings)
        check_positive("dim", dim)
        self.num_embeddings = num_embeddings
        self.dim = dim
        if bound is None:
            bound = 1.0 / np.sqrt(dim)
        self.weight = init.uniform((num_embeddings, dim), -bound, bound, rng, dtype=dtype)

    def __call__(self, indices) -> Tensor:
        # Narrowed (int32) walk-batch ids index directly; anything else is
        # normalized to int64 first.
        indices = np.asarray(indices)
        if indices.dtype.kind != "i":
            indices = indices.astype(np.int64)
        return self.weight[indices]


class LSTM(Module):
    """Single-layer LSTM over a list of per-step batches.

    ``forward(steps, mask)`` takes ``steps`` as a list of ``(B, D)`` tensors
    and an optional ``(T, B)`` 0/1 mask; masked steps carry the previous
    state through unchanged, which is how variable-length temporal walks are
    batched.  Gate order is input, forget, cell, output; the forget-gate bias
    starts at 1 (standard remedy for vanishing memory).
    """

    def __init__(self, input_size: int, hidden_size: int, rng=None, dtype=np.float64):
        super().__init__()
        check_positive("input_size", input_size)
        check_positive("hidden_size", hidden_size)
        rng = ensure_rng(rng)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.dtype = np.dtype(dtype)
        self.w_ih = init.xavier_uniform((input_size, 4 * hidden_size), rng, dtype=dtype)
        self.w_hh = init.xavier_uniform((hidden_size, 4 * hidden_size), rng, dtype=dtype)
        bias = np.zeros(4 * hidden_size, dtype=dtype)
        bias[hidden_size : 2 * hidden_size] = 1.0  # forget gate
        self.bias = Tensor(bias, requires_grad=True)

    def step(self, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
        """One LSTM step for inputs ``x`` (B, D) and state ``(h, c)``."""
        hs = self.hidden_size
        z = x @ self.w_ih + h @ self.w_hh + self.bias
        i = z[:, 0:hs].sigmoid()
        f = z[:, hs : 2 * hs].sigmoid()
        g = z[:, 2 * hs : 3 * hs].tanh()
        o = z[:, 3 * hs : 4 * hs].sigmoid()
        c_new = f * c + i * g
        h_new = o * c_new.tanh()
        return h_new, c_new

    def __call__(self, steps, mask=None) -> tuple[list[Tensor], Tensor]:
        """Run the full sequence; returns (per-step outputs, final hidden)."""
        if not steps:
            raise ValueError("LSTM needs at least one input step")
        batch = steps[0].shape[0]
        h = Tensor(np.zeros((batch, self.hidden_size), dtype=self.dtype))
        c = Tensor(np.zeros((batch, self.hidden_size), dtype=self.dtype))
        outputs: list[Tensor] = []
        for t, x in enumerate(steps):
            h_new, c_new = self.step(x, h, c)
            if mask is not None:
                m = Tensor(np.asarray(mask[t], dtype=self.dtype).reshape(batch, 1))
                h = m * h_new + (1.0 - m) * h
                c = m * c_new + (1.0 - m) * c
            else:
                h, c = h_new, c_new
            outputs.append(h)
        return outputs, h


class StackedLSTM(Module):
    """Multi-layer LSTM — the paper's aggregator (2 layers by default).

    ``__call__`` is the stepwise *reference* implementation: one autograd
    node per op per timestep per layer, kept as the test oracle.
    :meth:`fused` — what the EHNA aggregator runs — computes the same
    recurrence through :func:`fused_stacked_lstm` — a single autograd node
    with a hand-derived BPTT backward — and is gradcheck-verified against
    this reference in ``tests/nn/test_fused_lstm.py``.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        num_layers: int = 2,
        rng=None,
        dtype=np.float64,
    ):
        super().__init__()
        check_positive("num_layers", num_layers)
        rng = ensure_rng(rng)
        self.layers = [
            LSTM(input_size if i == 0 else hidden_size, hidden_size, rng, dtype=dtype)
            for i in range(num_layers)
        ]

    def __call__(self, steps, mask=None) -> tuple[list[Tensor], Tensor]:
        """Feed the sequence through every layer; final hidden is the summary."""
        outputs = steps
        final = None
        for layer in self.layers:
            outputs, final = layer(outputs, mask=mask)
        return outputs, final

    def fused(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        """Final hidden state via the single-node fused BPTT kernel.

        ``x`` is the whole sequence as one ``(B, T, D)`` tensor and ``mask``
        an optional ``(B, T)`` 0/1 validity array; equivalent to
        ``self([x[:, t] for t in range(T)], mask.T)[1]`` step for step.
        """
        return fused_stacked_lstm(x, self.layers, mask=mask)


def fused_stacked_lstm(x: Tensor, layers: list[LSTM], mask: np.ndarray | None = None) -> Tensor:
    """Masked multi-layer LSTM as **one** autograd node.

    Forward runs the full recurrence in a plain numpy loop (per-step matmuls
    in the same order as :meth:`LSTM.step`, so outputs match the stepwise
    reference bit for bit) while recording the gate activations and carried
    states; backward is a hand-derived backpropagation-through-time sweep —
    layers top-down, timesteps in reverse — that accumulates gradients for
    the input and every weight in a handful of array ops per step instead of
    a long chain of per-op closures.

    Parameters
    ----------
    x:
        ``(B, T, D)`` input sequence (``D`` = input size of ``layers[0]``).
    layers:
        The :class:`LSTM` layers, applied bottom to top; layer ``l``'s
        per-step *carried* outputs feed layer ``l + 1``.
    mask:
        Optional ``(B, T)`` 0/1 array; masked steps carry ``(h, c)`` through
        unchanged in every layer, exactly like the stepwise path.

    Returns the final carried hidden state of the top layer, ``(B, H)``.
    """
    if x.ndim != 3:
        raise ValueError(f"fused LSTM expects (B, T, D) input, got {x.shape}")
    batch, steps, _ = x.shape
    real = x.data.dtype  # the policy dtype threads through every buffer
    if mask is not None:
        mask = np.asarray(mask, dtype=real)
        if mask.shape != (batch, steps):
            raise ValueError(
                f"mask shape {mask.shape} must be (B, T) = {(batch, steps)}"
            )

    hs = layers[0].hidden_size
    n_layers = len(layers)
    # Per-layer forward tapes for the backward sweep.
    tape_x: list[np.ndarray] = []  # (T, B, D_l) inputs of each layer
    tape_gates: list[np.ndarray] = []  # (T, B, 4H) post-nonlinearity gates
    tape_tc: list[np.ndarray] = []  # (T, B, H) tanh of pre-mask cell states
    tape_carry_h: list[np.ndarray] = []  # (T, B, H) carried hidden states
    tape_carry_c: list[np.ndarray] = []  # (T, B, H) carried cell states

    if mask is None:
        m_col = m_inv = None
    else:
        m_col = np.ascontiguousarray(mask.T).reshape(steps, batch, 1)
        m_inv = 1.0 - m_col

    inp = np.ascontiguousarray(np.swapaxes(x.data, 0, 1))  # (T, B, D)
    for layer in layers:
        w_ih, w_hh, bias = layer.w_ih.data, layer.w_hh.data, layer.bias.data
        gates = np.empty((steps, batch, 4 * hs), dtype=real)
        tc_seq = np.empty((steps, batch, hs), dtype=real)
        h_seq = np.empty((steps, batch, hs), dtype=real)
        c_seq = np.empty((steps, batch, hs), dtype=real)
        h = np.zeros((batch, hs), dtype=real)
        c = np.zeros((batch, hs), dtype=real)
        for t in range(steps):
            # Same association order as LSTM.step: (x@Wih + h@Whh) + bias.
            z = inp[t] @ w_ih
            z += h @ w_hh
            z += bias
            gz = gates[t]
            _sigmoid(z[:, : 2 * hs], out=gz[:, : 2 * hs])  # i, f
            _sigmoid(z[:, 3 * hs :], out=gz[:, 3 * hs :])  # o
            np.tanh(z[:, 2 * hs : 3 * hs], out=gz[:, 2 * hs : 3 * hs])
            i = gz[:, 0:hs]
            f = gz[:, hs : 2 * hs]
            g = gz[:, 2 * hs : 3 * hs]
            o = gz[:, 3 * hs : 4 * hs]
            if m_col is not None:
                c_new = f * c  # (f*c) + (i*g), in place
                c_new += i * g
                np.tanh(c_new, out=tc_seq[t])
                h_new = o * tc_seq[t]
                np.multiply(m_col[t], h_new, out=h_seq[t])
                h_seq[t] += m_inv[t] * h
                np.multiply(m_col[t], c_new, out=c_seq[t])
                c_seq[t] += m_inv[t] * c
            else:
                np.multiply(f, c, out=c_seq[t])
                c_seq[t] += i * g
                np.tanh(c_seq[t], out=tc_seq[t])
                np.multiply(o, tc_seq[t], out=h_seq[t])
            h = h_seq[t]
            c = c_seq[t]
        tape_x.append(inp)
        tape_gates.append(gates)
        tape_tc.append(tc_seq)
        tape_carry_h.append(h_seq)
        tape_carry_c.append(c_seq)
        inp = h_seq  # carried outputs feed the next layer

    final = tape_carry_h[-1][steps - 1]

    def backward(g_final: np.ndarray) -> None:
        # d_out[t]: gradient on layer l's carried output h_t from the layer
        # above; None for the top layer, whose only downstream gradient is
        # g_final on the final carried state.
        d_out = None
        for li in range(n_layers - 1, -1, -1):
            layer = layers[li]
            w_ih, w_hh = layer.w_ih.data, layer.w_hh.data
            gates = tape_gates[li]
            tc_seq = tape_tc[li]
            h_seq = tape_carry_h[li]
            c_seq = tape_carry_c[li]
            xs = tape_x[li]
            # One vectorized pass over the whole tape for the gate-derivative
            # factors; the trailing multiplication order per step is unchanged
            # (same rounding as the stepwise reference).
            gi = gates[:, :, 0:hs]
            gf = gates[:, :, hs : 2 * hs]
            ggg = gates[:, :, 2 * hs : 3 * hs]
            go = gates[:, :, 3 * hs : 4 * hs]
            om_i = 1.0 - gi
            om_f = 1.0 - gf
            om_g2 = 1.0 - ggg * ggg
            om_o = 1.0 - go
            om_tc2 = 1.0 - tc_seq * tc_seq
            d_in = np.empty_like(xs)
            d_w_ih = np.zeros_like(w_ih) if layer.w_ih.requires_grad else None
            d_w_hh = np.zeros_like(w_hh) if layer.w_hh.requires_grad else None
            d_bias = (
                np.zeros_like(layer.bias.data) if layer.bias.requires_grad else None
            )
            dh = np.zeros((batch, hs), dtype=real)  # recurrent grad on carried h_t
            dc = np.zeros((batch, hs), dtype=real)  # recurrent grad on carried c_t
            # Scratch buffers reused across steps; every slot is fully
            # rewritten before it is read in each iteration.  All in-place
            # chains keep the reference's left-to-right association.
            dz = np.empty((batch, 4 * hs), dtype=real)
            b_hnew = np.empty((batch, hs), dtype=real)
            b_hskip = np.empty((batch, hs), dtype=real)
            b_cnew = np.empty((batch, hs), dtype=real)
            b_cskip = np.empty((batch, hs), dtype=real)
            b_do = np.empty((batch, hs), dtype=real)
            b_tmp = np.empty((batch, hs), dtype=real)
            for t in range(steps - 1, -1, -1):
                if d_out is not None:
                    dh_total = dh + d_out[t]
                elif t == steps - 1:
                    dh_total = g_final
                else:
                    dh_total = dh
                if m_col is not None:
                    dh_new = np.multiply(m_col[t], dh_total, out=b_hnew)
                    np.multiply(m_inv[t], dh_total, out=b_hskip)
                    dc_new = np.multiply(m_col[t], dc, out=b_cnew)
                    np.multiply(m_inv[t], dc, out=b_cskip)
                else:
                    dh_new = dh_total
                    np.copyto(b_cnew, dc)
                    dc_new = b_cnew
                i = gi[t]
                f = gf[t]
                gg = ggg[t]
                o = go[t]
                do = np.multiply(dh_new, tc_seq[t], out=b_do)
                # dc_new += ((dh_new * o) * om_tc2), left to right
                np.multiply(dh_new, o, out=b_tmp)
                b_tmp *= om_tc2[t]
                dc_new += b_tmp
                c_prev = c_seq[t - 1] if t > 0 else 0.0
                h_prev = h_seq[t - 1] if t > 0 else None
                np.multiply(dc_new, gg, out=b_tmp)
                b_tmp *= i
                np.multiply(b_tmp, om_i[t], out=dz[:, 0:hs])
                np.multiply(dc_new, c_prev, out=b_tmp)
                b_tmp *= f
                np.multiply(b_tmp, om_f[t], out=dz[:, hs : 2 * hs])
                np.multiply(dc_new, i, out=b_tmp)
                np.multiply(b_tmp, om_g2[t], out=dz[:, 2 * hs : 3 * hs])
                np.multiply(do, o, out=b_tmp)
                np.multiply(b_tmp, om_o[t], out=dz[:, 3 * hs : 4 * hs])
                np.matmul(dz, w_ih.T, out=d_in[t])
                if d_w_ih is not None:
                    d_w_ih += xs[t].T @ dz
                if d_w_hh is not None and h_prev is not None:
                    d_w_hh += h_prev.T @ dz
                if d_bias is not None:
                    d_bias += dz.sum(axis=0)
                np.matmul(dz, w_hh.T, out=dh)
                np.multiply(dc_new, f, out=dc)
                if m_col is not None:
                    dh += b_hskip
                    dc += b_cskip
            if d_w_ih is not None:
                layer.w_ih._accumulate(d_w_ih)
            if d_w_hh is not None:
                layer.w_hh._accumulate(d_w_hh)
            if d_bias is not None:
                layer.bias._accumulate(d_bias)
            d_out = d_in  # becomes the layer below's per-step output grad
        if x.requires_grad:
            x._accumulate(np.swapaxes(d_out, 0, 1))

    parents = [x]
    for layer in layers:
        parents.extend([layer.w_ih, layer.w_hh, layer.bias])
    return apply_op(final, parents, backward)


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable logistic, branchless.

    Bitwise-identical to :meth:`Tensor.sigmoid` (which splits on sign with
    boolean indexing): with ``e = exp(-|x|)``, the positive branch
    ``1 / (1 + exp(-x))`` and the negative branch ``exp(x) / (1 + exp(x))``
    are both exactly ``select(x >= 0, 1/(1+e), e/(1+e))`` — same exponent
    argument, same division — but evaluated without gather/scatter copies.
    """
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    num = np.where(x >= 0, 1.0, e)
    e += 1.0  # e becomes the shared denominator
    if out is None:
        return np.divide(num, e)
    np.divide(num, e, out=out)
    return out


class BatchNorm1d(Module):
    """Batch normalization over feature vectors (B, D).

    Uses batch statistics and updates running averages in training mode;
    uses the running averages at inference, as in Ioffe & Szegedy [33].
    """

    def __init__(
        self,
        num_features: int,
        momentum: float = 0.1,
        eps: float = 1e-5,
        dtype=np.float64,
    ):
        super().__init__()
        check_positive("num_features", num_features)
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = init.ones((num_features,), dtype=dtype)
        self.beta = init.zeros((num_features,), dtype=dtype)
        self.running_mean = np.zeros(num_features, dtype=dtype)
        self.running_var = np.ones(num_features, dtype=dtype)
        #: When set to a list, every training forward appends its batch
        #: ``(mean, var)`` here.  The data-parallel trainer uses this to
        #: replay a shard's running-average updates on the leader — a log
        #: (not a single capture) because one training step may run this
        #: layer more than once (temporal and static aggregation parts).
        self.stats_log: list | None = None

    def __call__(self, x: Tensor) -> Tensor:
        if x.ndim != 2 or x.shape[1] != self.num_features:
            raise ValueError(
                f"expected input of shape (B, {self.num_features}), got {x.shape}"
            )
        if self.training:
            mean = x.mean(axis=0, keepdims=True)
            centered = x - mean
            var = (centered * centered).mean(axis=0, keepdims=True)
            if self.stats_log is not None:
                self.stats_log.append((mean.data.ravel(), var.data.ravel()))
            self.running_mean = (
                (1 - self.momentum) * self.running_mean
                + self.momentum * mean.data.ravel()
            )
            self.running_var = (
                (1 - self.momentum) * self.running_var
                + self.momentum * var.data.ravel()
            )
            inv = (var + self.eps) ** -0.5
            normalized = centered * inv
        else:
            mean = Tensor(self.running_mean.reshape(1, -1))
            inv = Tensor(1.0 / np.sqrt(self.running_var + self.eps).reshape(1, -1))
            normalized = (x - mean) * inv
        return normalized * self.gamma + self.beta


class Sequential(Module):
    """Feed-forward composition of layers/callables."""

    def __init__(self, *layers):
        super().__init__()
        self.layers = list(layers)

    def __call__(self, x):
        for layer in self.layers:
            x = layer(x)
        return x


__all__ = [
    "Module",
    "Linear",
    "Embedding",
    "LSTM",
    "StackedLSTM",
    "BatchNorm1d",
    "Sequential",
    "concat",
]
