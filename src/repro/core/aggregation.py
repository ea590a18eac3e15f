"""Two-level aggregation over historical neighborhoods (Algorithm 1).

Given a batch of target nodes and ``k`` walks per target, the aggregator:

1. looks up node embeddings along every walk, weights them with node-level
   attention (Eq. 3, lines 2–3 of Algorithm 1);
2. runs the weighted sequences through a stacked LSTM, batch-norm and ReLU to
   get one representation ``h_r`` per walk (line 4);
3. weights the ``h_r`` with walk-level attention (Eq. 4, line 5) and runs a
   second stacked LSTM + batch-norm over each target's ``k`` walk
   representations to get the neighborhood summary ``H`` (line 6);
4. concatenates ``H`` with the target's own embedding and projects with a
   trainable matrix ``W`` (line 7), then L2-normalizes (line 8).

Walks of different lengths are padded and masked; masked LSTM steps carry
state through unchanged.  With ``two_level=False`` (the EHNA-SL ablation) the
caller merges each target's walks into one long sequence and step 3 is
skipped — ``h`` itself becomes the neighborhood summary.

:func:`batch_walks` pads ``Walk`` lists — the walk-cache path and the test
oracle; everything else receives :class:`~repro.walks.base.WalkBatch` arrays
directly from the walk engine (``temporal_walk_batch``), bitwise-equal for
the same walks.  Both LSTMs run the fused single-node BPTT kernel
(``StackedLSTM.fused``); the stepwise ``StackedLSTM.__call__`` graph stays
as the gradcheck-verified test oracle.
"""

from __future__ import annotations

import numpy as np

from repro.core.attention import node_attention, walk_attention, walk_factors
from repro.nn.layers import BatchNorm1d, Linear, Module, StackedLSTM
from repro.nn.tensor import Tensor, concat
from repro.utils.rng import ensure_rng
from repro.walks.base import Walk, WalkBatch

__all__ = ["WalkBatch", "batch_walks", "TwoLevelAggregator"]


def _walk_rows(walk: Walk, scale, chronological: bool) -> tuple[list[int], np.ndarray]:
    """Node ids and normalized time-sums of one walk, optionally reversed.

    Temporal walks visit the most recent interaction first; with
    ``chronological=True`` the sequence is reversed so the LSTM consumes
    events oldest-first and its final state emphasizes the recent past.
    """
    nodes = list(walk.nodes)
    sums = walk.node_time_sums(scale)
    if chronological:
        nodes = nodes[::-1]
        sums = sums[::-1]
    return nodes, sums


def batch_walks(
    walk_sets: list[list[Walk]],
    scale,
    chronological: bool = True,
    merge: bool = False,
    real_dtype=np.float64,
) -> WalkBatch:
    """Pad a batch of per-target walk lists into :class:`WalkBatch` arrays.

    ``walk_sets[b]`` holds the walks of target ``b``; every target must have
    the same number of walks.  With ``merge=True`` each target's walks are
    concatenated into a single sequence (per-walk time-sums are computed
    *before* merging, so edges never leak across walk boundaries) — the
    single-level layout used by EHNA-SL.

    ``real_dtype`` is the precision policy's floating dtype for the emitted
    ``valid``/``time_sums`` arrays; time-sum accumulation itself always runs
    in ``float64`` (matching the engine fast path) and only the final arrays
    narrow.  This path keeps ``int64`` ids — it serves walk-cache hits and
    correctness comparisons, not memory.
    """
    if not walk_sets:
        raise ValueError("walk_sets must not be empty")
    k = len(walk_sets[0])
    if k == 0 or any(len(ws) != k for ws in walk_sets):
        raise ValueError("every target needs the same positive number of walks")

    rows: list[tuple[list[int], np.ndarray]] = []
    if merge:
        for ws in walk_sets:
            nodes: list[int] = []
            sums: list[np.ndarray] = []
            for w in ws:
                n, s = _walk_rows(w, scale, chronological)
                nodes.extend(n)
                sums.append(s)
            rows.append((nodes, np.concatenate(sums)))
        k = 1
    else:
        for ws in walk_sets:
            for w in ws:
                rows.append(_walk_rows(w, scale, chronological))

    n_rows = len(rows)
    max_len = max(len(nodes) for nodes, _ in rows)
    ids = np.zeros((n_rows, max_len), dtype=np.int64)
    valid = np.zeros((n_rows, max_len), dtype=real_dtype)
    sums_arr = np.zeros((n_rows, max_len), dtype=real_dtype)
    for i, (nodes, sums) in enumerate(rows):
        ln = len(nodes)
        ids[i, :ln] = nodes
        valid[i, :ln] = 1.0
        sums_arr[i, :ln] = sums
    return WalkBatch(ids=ids, valid=valid, time_sums=sums_arr, k=k)


class TwoLevelAggregator(Module):
    """Algorithm 1 as a batched, differentiable module.

    ``dim`` doubles as the LSTM hidden size: Eq. 4 measures Euclidean
    distance between the target embedding ``e_x`` and walk representations
    ``h_r``, which forces the two spaces to share a dimension.

    Both LSTMs run through the single-node fused BPTT kernel
    (:func:`repro.nn.layers.fused_stacked_lstm`).
    """

    def __init__(
        self,
        dim: int,
        lstm_layers: int = 2,
        two_level: bool = True,
        rng=None,
        dtype=np.float64,
    ):
        super().__init__()
        rng = ensure_rng(rng)
        self.dim = dim
        self.two_level = two_level
        self.dtype = np.dtype(dtype)
        self.node_lstm = StackedLSTM(dim, dim, lstm_layers, rng, dtype=dtype)
        self.node_bn = BatchNorm1d(dim, dtype=dtype)
        if two_level:
            self.walk_lstm = StackedLSTM(dim, dim, lstm_layers, rng, dtype=dtype)
            self.walk_bn = BatchNorm1d(dim, dtype=dtype)
        self.readout = Linear(2 * dim, dim, bias=False, rng=rng, dtype=dtype)
        # Identity-preserving initialization of W = [W_H | W_e] (line 7):
        # start with W_e = I and W_H small, so z ≈ e_x + ε·H at step 0.  The
        # margin loss then shapes the embedding table from the first batch,
        # while the LSTM pathway's contribution is learned on top — without
        # this, early training must push gradients through two stacked LSTMs
        # before any pairwise signal reaches the embeddings.
        self.readout.weight.data[:dim] *= 0.1
        self.readout.weight.data[dim:] = np.eye(dim)

    def __call__(
        self,
        embedding,
        targets: np.ndarray,
        batch: WalkBatch,
        use_attention: bool = True,
        time_eps: float = 1e-2,
    ) -> Tensor:
        """Aggregate; returns L2-normalized ``z`` of shape ``(B, dim)``."""
        targets = np.asarray(targets, dtype=np.int64)
        n_walks, max_len = batch.ids.shape
        k = batch.k
        n_targets = targets.size
        if n_walks != n_targets * k:
            raise ValueError(
                f"batch holds {n_walks} walks but {n_targets} targets x k={k} expected"
            )

        walk_embs = embedding(batch.ids)  # (W, T, dim)
        targets_rep = np.repeat(targets, k)
        target_embs = embedding(targets_rep)  # (W, dim)

        # -- node level (lines 2-4) -------------------------------------
        if use_attention:
            diff = walk_embs - target_embs.reshape((n_walks, 1, self.dim))
            dist = (diff * diff).sum(axis=2)  # (W, T)
            alpha = node_attention(dist, batch.time_sums, batch.valid, time_eps)
            weighted = walk_embs * alpha.reshape((n_walks, max_len, 1))
        else:
            weighted = walk_embs * Tensor(batch.valid.reshape((n_walks, max_len, 1)))

        h = self.node_lstm.fused(weighted, mask=batch.valid)
        h = self.node_bn(h).relu()  # (W, dim) — the h_r of line 4

        # -- walk level (lines 5-6) -------------------------------------
        if self.two_level:
            if use_attention:
                diff_w = h - target_embs
                dist_w = (diff_w * diff_w).sum(axis=1).reshape((n_targets, k))
                factors = walk_factors(batch.time_sums, batch.valid, time_eps)
                beta = walk_attention(dist_w, factors.reshape(n_targets, k))
                h_w = h.reshape((n_targets, k, self.dim)) * beta.reshape(
                    (n_targets, k, 1)
                )
            else:
                h_w = h.reshape((n_targets, k, self.dim))
            summary = self.walk_bn(self.walk_lstm.fused(h_w))  # the H of line 6
        else:
            if k != 1:
                raise ValueError("single-level aggregation expects merged walks (k=1)")
            summary = h

        # -- readout (lines 7-8) -----------------------------------------
        own = embedding(targets)  # (B, dim)
        z = self.readout(concat([summary, own], axis=1))
        norm = ((z * z).sum(axis=1, keepdims=True) + 1e-12) ** 0.5
        return z / norm
