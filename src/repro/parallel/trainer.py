"""Synchronous data-parallel EHNA training.

One training step is split into ``config.parallel_shards`` shards of the
edge batch.  Every shard runs the model's own step body — temporal walks,
two-level aggregation, margin loss, backward — on its own RNG substream
(``SeedSequence(entropy=(step_seed, shard_idx))``), producing a gradient
contribution, a per-shard loss, and a log of its batch-norm statistics.
The leader reduces shard gradients in shard order (weighted by shard size),
replays the batch-norm running-average updates in the same order, and takes
one :class:`~repro.core.params.FlatAdam` step on the flat parameter vector.

**What crosses the process boundary.**  Down: the graph's
:class:`~repro.storage.PackHandle`, the parameter segment's handle, and the
config dict — once, at pool startup; then per shard only ``(edge_ids,
step_seed, shard_idx)``.  Up: sparse embedding-gradient rows, the dense
network gradient, the BN logs and the loss.  Parameters never move: workers
read the leader's live flat vector through the shared segment, so each
``FlatAdam.step`` is visible to every worker by the next shard.

**Determinism.**  The shard layout, substreams and reduction order are all
functions of the config — not of the worker count — so sync trajectories
are *worker-count-invariant*: ``num_workers=0`` (every shard inline, no
pool — the cheap bitwise comparator), 2, 4, 8 ... produce bitwise-equal
losses and parameters at a fixed seed.  They are intentionally *not*
bitwise-equal to the legacy ``num_workers=1`` path, whose batch-norm
statistics and RNG stream are whole-batch rather than per-shard; both are
faithful EHNA estimators (tests pin AUC agreement).
"""

from __future__ import annotations

import numpy as np

from repro.core.params import FlatAdam, FlatParams, ParamGroup
from repro.core.trainer import Trainer, with_verbose
from repro.graph.temporal_graph import TemporalGraph
from repro.parallel.pool import _WORKER, shard_rng, spawn_pool
from repro.parallel.state import SharedParams


def _make_flat_adam(model, flat: FlatParams) -> FlatAdam:
    """The flat twin of ``EHNA._make_optimizers`` (same lrs, clip, betas)."""
    cfg = model.config
    network_lr = cfg.network_lr if cfg.network_lr is not None else cfg.lr / 20.0
    clip = cfg.grad_clip if cfg.grad_clip > 0 else None
    emb = flat.slice_of("embedding")
    groups = [ParamGroup("embedding", emb.start, emb.stop, lr=cfg.lr, clip=clip)]
    if emb.stop < flat.size:
        groups.append(
            ParamGroup("network", emb.stop, flat.size, lr=network_lr, clip=clip)
        )
    return FlatAdam(flat, groups)


def _shard_step(model, edge_ids: np.ndarray, step_seed: int, shard_idx: int) -> dict:
    """One shard's forward/backward; leaves the model's state untouched.

    Runs ``EHNA._batch_loss`` — the single-process step body — on the
    shard's RNG substream instead of the model stream.  Batch-norm running
    statistics are snapshotted and restored around the forward — the shard
    only *logs* its batch statistics (via ``BatchNorm1d.stats_log``) for the
    leader to replay, so inline and pooled execution leave identical leader
    state.
    """
    bns = model._batch_norms()
    saved = [(bn.running_mean, bn.running_var) for bn in bns]
    for bn in bns:
        bn.stats_log = []
    try:
        loss = model._batch_loss(edge_ids, rng=shard_rng(step_seed, shard_idx))
        model.embedding.zero_grad()
        model.aggregator.zero_grad()
        loss.backward()
        logs = [bn.stats_log for bn in bns]
    finally:
        for bn, (mean, var) in zip(bns, saved):
            bn.stats_log = None
            bn.running_mean = mean
            bn.running_var = var

    emb_grad = model.embedding.weight.grad
    real = emb_grad.dtype
    rows = np.flatnonzero(np.any(emb_grad, axis=1))
    net_parts = [
        (p.grad if p.grad is not None else np.zeros_like(p.data)).ravel()
        for p in model.aggregator.parameters()
    ]
    net = np.concatenate(net_parts) if net_parts else np.zeros(0, dtype=real)
    return {
        "rows": rows,
        "emb": emb_grad[rows].copy(),
        "net": net,
        "bn": logs,
        "loss": float(loss.item()),
        "count": int(edge_ids.size),
    }


def _reduce_and_step(model, flat: FlatParams, opt: FlatAdam, results: list) -> float:
    """Shard-order weighted gradient average + BN replay + one Adam step."""
    total = sum(r["count"] for r in results)
    grad = np.zeros(flat.size, dtype=flat.dtype)
    emb_sl = flat.slice_of("embedding")
    emb_view = grad[emb_sl].reshape(model.embedding.weight.data.shape)
    bns = model._batch_norms()
    loss = 0.0
    for r in results:
        w = r["count"] / total
        emb_view[r["rows"]] += w * r["emb"]
        grad[emb_sl.stop :] += w * r["net"]
        for bn, entries in zip(bns, r["bn"]):
            for mean, var in entries:
                bn.running_mean = (
                    (1 - bn.momentum) * bn.running_mean + bn.momentum * mean
                )
                bn.running_var = (
                    (1 - bn.momentum) * bn.running_var + bn.momentum * var
                )
        loss += w * r["loss"]
    opt.step(grad)
    return loss


def _init_train_worker(graph_handle, params_handle, config: dict) -> None:
    """Pool initializer: attach graph + parameter segment, build the model.

    The worker's freshly initialized parameters are immediately rebound to
    read-only views of the leader's shared vector, so its init draws are
    throwaway; its RNG is never consumed either (shard steps carry explicit
    substream generators).
    """
    from repro.core.config import EHNAConfig
    from repro.core.model import EHNA

    graph = TemporalGraph.from_handle(graph_handle)
    model = EHNA(config=EHNAConfig(**config))
    model._build_runtime(graph, rng=np.random.default_rng(0))
    flat = FlatParams(model._named_parameters())
    shared = SharedParams.attach(params_handle)
    flat.rebind(shared.readonly())
    model.aggregator.train()
    _WORKER["train_graph"] = graph
    _WORKER["train_model"] = model
    _WORKER["train_flat"] = flat
    _WORKER["train_shared"] = shared


def _pool_shard_step(edge_ids: np.ndarray, step_seed: int, shard_idx: int) -> dict:
    """Pool task: run a shard on this worker's persistent model."""
    return _shard_step(_WORKER["train_model"], edge_ids, step_seed, shard_idx)


def fit_data_parallel(model, graph: TemporalGraph, verbose: bool = False, callbacks=()):
    """Train ``model`` on ``graph`` with sharded sync gradients.

    The entry point ``EHNA.fit`` dispatches to when
    ``config.num_workers != 1``.  ``num_workers=0`` runs every shard inline
    (no pool, no shared segments) with math identical to the pooled path;
    ``num_workers >= 2`` places graph and parameters in shared memory and
    fans shards out over a persistent spawn pool.
    """
    cfg = model.config
    if cfg.parallel != "sync":
        raise ValueError(
            f"EHNA data-parallel training requires parallel='sync'; "
            f"{cfg.parallel!r} is reserved for the skip-gram baselines"
        )
    model._build_runtime(graph)
    flat = FlatParams(model._named_parameters())
    opt = _make_flat_adam(model, flat)

    pool = None
    shared = None
    shared_graph = None
    try:
        if cfg.num_workers >= 2:
            shared_graph = graph if graph.storage_backend == "shared" else graph.to_shared()
            shared = SharedParams.create(flat)
            flat.rebind(shared.writable())
            pool = spawn_pool(
                cfg.num_workers,
                _init_train_worker,
                (shared_graph.shared_handle, shared.handle, model._config_dict()),
            )

        def train_batch(edge_ids: np.ndarray) -> float:
            step_seed = int(model._rng.integers(2**63 - 1))
            shards = [
                (s, i)
                for i, s in enumerate(np.array_split(edge_ids, cfg.parallel_shards))
                if s.size
            ]
            if pool is None:
                results = [_shard_step(model, s, step_seed, i) for s, i in shards]
            else:
                futures = [
                    pool.submit(_pool_shard_step, s, step_seed, i) for s, i in shards
                ]
                results = [f.result() for f in futures]
            return _reduce_and_step(model, flat, opt, results)

        model.aggregator.train()
        trainer = Trainer(
            epochs=cfg.epochs,
            batch_size=cfg.batch_size,
            rng=model._rng,
            callbacks=with_verbose([*model.callbacks, *callbacks], verbose),
            name=model.name,
        )
        model.loss_history = trainer.run(train_batch, num_items=graph.num_edges)
    finally:
        if pool is not None:
            pool.shutdown(wait=True)
        if shared is not None:
            # Re-privatize before unlinking: tensors must not keep viewing
            # a segment that is about to disappear.
            flat.rebind(flat.data.copy())
            shared.close()
        if shared_graph is not None and shared_graph is not graph:
            shared_graph.storage.close()

    model._final = model._final_embeddings()
    model._infer_seed = int(model._rng.integers(2**63 - 1))
    return model
