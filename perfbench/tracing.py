"""Span tracing from outside the program, and the per-layer metrics it yields.

The benchmark never edits ``src/``: :func:`install` replaces public callables
with thin wrappers *where their callers look them up* (a class attribute, or
a module global such as ``repro.core.model.margin_hinge_loss``), records one
span per call, and :func:`uninstall` puts the originals back.  A wrapper
calls the original with the same arguments and returns its result
untouched, so tracing cannot change the computation; the benchmark checks
that by comparing an untraced and a traced pass bitwise.

A span is ``(name, start, end, parent)``; spans live in memory and are
written out once, when the run ends (:meth:`Tracer.dump`).  Self time is a
span's duration minus the durations of its children (calls are single
threaded and strictly nested, so the children never overlap).
"""

from __future__ import annotations

import inspect
import json
import os
import statistics
import time

import repro.base
import repro.core.aggregation
import repro.core.model
import repro.nn.layers
import repro.stream.service
from repro.core.aggregation import TwoLevelAggregator
from repro.core.negative_sampling import NegativeSampler
from repro.core.trainer import Trainer
from repro.datasets import generators
from repro.graph.temporal_graph import TemporalGraph
from repro.nn.layers import StackedLSTM
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.stream.service import OnlineService
from repro.stream.wal import WriteAheadLog
from repro.tasks.link_prediction import LinkPredictionTask
from repro.walks.engine import BatchedWalkEngine

#: Spans that only group work: their self time is glue code no layer owns,
#: so it counts toward the ``trace.*uncovered_frac`` metrics.
CONTAINERS = frozenset(
    {"fit", "trainer.run", "trainer.step", "service.encode", "service.absorb"}
)

#: Per-layer time metrics: metric name -> span names whose self time it sums.
SELF_TIME_METRICS = {
    "walks.temporal_s": ("walks.temporal",),
    "walks.uniform_s": ("walks.uniform",),
    "walks.bind_s": ("walks.bind",),
    "lstm.forward_s": ("lstm.forward",),
    "lstm.backward_s": ("lstm.backward",),
    "attention.s": ("attention",),
    "aggregation.self_s": ("aggregation",),
    "autograd.self_s": ("autograd",),
    "negatives.s": ("negatives",),
    "loss.s": ("loss",),
    "optim.step_s": ("optim.step",),
    "graph.extend_s": ("graph.extend",),
    "graph.compact_s": ("graph.compact",),
    "storage.write_s": ("storage.write",),
    "storage.open_s": ("storage.open",),
    "wal.append_s": ("wal.append", "wal.rotate"),
    "wal.fsync_s": ("wal.fsync",),
    "service.validate_s": ("service.validate",),
    "service.ingest_self_s": ("service.ingest",),
    "checkpoint.s": ("service.checkpoint", "checkpoint.save"),
    "eval.s": ("eval",),
}


class Tracer:
    """In-memory span recorder with a stack of open spans and counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, float] = {}
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(float("nan"))
        self._open.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._open.pop()

    @property
    def current(self) -> str | None:
        return self.names[self._open[-1]] if self._open else None

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def call(self, name: str, fn, args, kwargs):
        idx = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(idx)

    def dump(self, path, extra: dict) -> None:
        """Write every span and counter as JSON (once, at the end of a run)."""
        spans = [
            [n, s, e, p]
            for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
        ]
        with open(path, "w") as fh:
            json.dump({**extra, "counters": self.counters, "spans": spans}, fh)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        out = self.durations()
        for i, p in enumerate(self.parents):
            if p >= 0:
                out[p] -= self.ends[i] - self.starts[i]
        return out

    def under(self, roots) -> list[str | None]:
        """For every span, the name of its nearest ancestor in ``roots``."""
        ctx: list[str | None] = []
        for i, p in enumerate(self.parents):
            up = ctx[p] if p >= 0 else None
            ctx.append(self.names[i] if self.names[i] in roots else up)
        return ctx


def _wrap(tracer: Tracer, fn, name: str, after=None):
    def traced(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        if after is not None:
            after(tracer, result, args, kwargs)
        return result

    traced.__wrapped__ = fn
    return traced


# ----------------------------------------------------------------------
# counters computed from a wrapped call's inputs and outputs
# ----------------------------------------------------------------------
def _walk_counts(method):
    """Counter hook for a walk-batch method: walks, steps, history hits."""
    signature = inspect.signature(method)
    temporal = "anchors" in signature.parameters

    def after(tracer: Tracer, batch, args, kwargs) -> None:
        length = signature.bind(*args, **kwargs).arguments["length"]
        lengths = batch.row_lengths()
        tracer.count("walks.count", lengths.size)
        tracer.count("walks.steps", int((lengths - 1).sum()))
        tracer.count("walks.steps_requested", lengths.size * length)
        if temporal and lengths.size:
            per_target = lengths.reshape(-1, batch.k).max(axis=1)
            tracer.count("walks.targets", per_target.size)
            tracer.count("walks.targets_with_history", int((per_target > 1).sum()))

    return after


def _compact_counts(tracer: Tracer, result, args, kwargs) -> None:
    if result is not None and len(result):
        tracer.count("graph.compactions")


def _ingest_counts(tracer: Tracer, result, args, kwargs) -> None:
    tracer.count("service.batches")


def _saved_bytes(tracer: Tracer, path, args, kwargs) -> None:
    tracer.count("checkpoint.bytes", os.path.getsize(path))


def _wrap_trainer_run(tracer: Tracer, run):
    """``Trainer.run`` plus a span around the ``step`` callable it receives."""

    def traced(self, step, *args, **kwargs):
        return tracer.call(
            "trainer.run", run, (self, _wrap(tracer, step, "trainer.step"), *args), kwargs
        )

    traced.__wrapped__ = run
    return traced


def _wrap_wal_append(tracer: Tracer, append):
    """``WriteAheadLog.append``, counting the bytes the log grew by."""

    def traced(self, *args, **kwargs):
        before = self.disk_bytes
        result = tracer.call("wal.append", append, (self,) + args, kwargs)
        tracer.count("wal.bytes", self.disk_bytes - before)
        return result

    traced.__wrapped__ = append
    return traced


def _wrap_fsync(tracer: Tracer, fsync):
    """``os.fsync``: its own span under a WAL call, else part of its parent."""

    def traced(fd):
        if tracer.current in ("wal.append", "wal.rotate"):
            return tracer.call("wal.fsync", fsync, (fd,), {})
        return fsync(fd)

    traced.__wrapped__ = fsync
    return traced


def _wrap_apply_op(tracer: Tracer, apply_op):
    """The fused LSTM's ``apply_op``: time its hand-written backward closure."""

    def traced(data, parents, backward):
        return apply_op(data, parents, _wrap(tracer, backward, "lstm.backward"))

    traced.__wrapped__ = apply_op
    return traced


def _patch_table(tracer: Tracer):
    """``(owner, attribute, replacement-factory)`` for every wrapped call."""

    def span(name, after=None):
        return lambda fn: _wrap(tracer, fn, name, after)

    temporal = _walk_counts(BatchedWalkEngine.temporal_walk_batch)
    uniform = _walk_counts(BatchedWalkEngine.uniform_walk_batch)
    return [
        # walks (walks/engine.py)
        (BatchedWalkEngine, "temporal_walk_batch", span("walks.temporal", temporal)),
        (BatchedWalkEngine, "uniform_walk_batch", span("walks.uniform", uniform)),
        (BatchedWalkEngine, "__init__", span("walks.bind")),
        # lstm (nn/layers.py)
        (StackedLSTM, "fused", span("lstm.forward")),
        (repro.nn.layers, "apply_op", lambda fn: _wrap_apply_op(tracer, fn)),
        # attention, as bound in core/aggregation.py
        (repro.core.aggregation, "node_attention", span("attention")),
        (repro.core.aggregation, "walk_attention", span("attention")),
        (TwoLevelAggregator, "__call__", span("aggregation")),
        (Tensor, "backward", span("autograd")),
        (NegativeSampler, "sample", span("negatives")),
        (repro.core.model, "margin_hinge_loss", span("loss")),
        (Adam, "step", span("optim.step")),
        (Trainer, "run", lambda fn: _wrap_trainer_run(tracer, fn)),
        (repro.core.model.EHNA, "fit", span("fit")),
        # graph, storage
        (TemporalGraph, "extend_in_place", span("graph.extend")),
        (TemporalGraph, "compact", span("graph.compact", _compact_counts)),
        (TemporalGraph, "from_storage", span("storage.open")),
        (generators, "generate_scaled_events", span("storage.write")),
        # wal, service, checkpoint
        (WriteAheadLog, "append", lambda fn: _wrap_wal_append(tracer, fn)),
        (WriteAheadLog, "rotate", span("wal.rotate")),
        (os, "fsync", lambda fn: _wrap_fsync(tracer, fn)),
        (repro.stream.service, "validate_event_columns", span("service.validate")),
        (OnlineService, "ingest", span("service.ingest", _ingest_counts)),
        (OnlineService, "encode", span("service.encode")),
        (OnlineService, "absorb", span("service.absorb")),
        (OnlineService, "checkpoint", span("service.checkpoint", _saved_bytes)),
        (OnlineService, "recover", span("recover")),
        (repro.base, "save_checkpoint", span("checkpoint.save")),
        # eval
        (LinkPredictionTask, "evaluate", span("eval")),
    ]


def install(tracer: Tracer):
    """Wrap every call in the layer table; returns the undo list."""
    undo = []
    for owner, attr, factory in _patch_table(tracer):
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(factory(original.__func__))
        else:
            replacement = factory(original)
        setattr(owner, attr, replacement)
        undo.append((owner, attr, original))
    return undo


def uninstall(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, loops) -> dict[str, float]:
    """Reduce the spans of one traced pass to the per-layer metrics.

    ``loops`` are the ``(start, end)`` intervals of the serve loops; the
    fits are the ``EHNA.fit`` spans.  The ``trace.*uncovered_frac`` metrics
    are the share of their wall time that no layer span accounts for.
    """
    selfs = tracer.self_times()
    durs = tracer.durations()
    names = tracer.names
    by_name: dict[str, float] = {}
    for n, t in zip(names, selfs):
        by_name[n] = by_name.get(n, 0.0) + t
    out = {
        m: sum(by_name.get(n, 0.0) for n in spans)
        for m, spans in SELF_TIME_METRICS.items()
    }

    c = tracer.counters
    out["walks.count"] = c.get("walks.count", 0)
    out["walks.len_ratio"] = _ratio(
        c.get("walks.steps", 0), c.get("walks.steps_requested", 0)
    )
    out["walks.history_frac"] = _ratio(
        c.get("walks.targets_with_history", 0), c.get("walks.targets", 0)
    )
    steps = [d for n, d in zip(names, durs) if n == "trainer.step"]
    out["trainer.steps"] = len(steps)
    out["trainer.step_p50_ms"] = statistics.median(steps) * 1e3 if steps else 0.0
    run_in_fit = sum(
        d for n, d, p in zip(names, durs, tracer.parents)
        if n == "trainer.run" and p >= 0 and names[p] == "fit"
    )
    out["fit.outside_steps_s"] = (
        sum(d for n, d in zip(names, durs) if n == "fit") - run_in_fit
    )
    out["graph.compactions_per_batch"] = _ratio(
        c.get("graph.compactions", 0), c.get("service.batches", 0)
    )
    out["wal.bytes"] = c.get("wal.bytes", 0)
    out["checkpoint.bytes"] = c.get("checkpoint.bytes", 0)
    out["recover.s"] = sum(d for n, d in zip(names, durs) if n == "recover")

    ctx = tracer.under(("service.encode", "service.absorb"))
    for root, prefix in (("service.encode", "encode"), ("service.absorb", "absorb")):
        out[f"{prefix}.walks_s"] = sum(
            t for n, t, r in zip(names, selfs, ctx)
            if r == root and n.startswith("walks.")
        )
        out[f"{prefix}.lstm_s"] = sum(
            t for n, t, r in zip(names, selfs, ctx)
            if r == root and n.startswith("lstm.")
        )

    fits = [(s, e) for n, s, e in zip(names, tracer.starts, tracer.ends) if n == "fit"]
    out["trace.fit_uncovered_frac"] = _uncovered(tracer, selfs, fits)
    out["trace.serve_uncovered_frac"] = _uncovered(tracer, selfs, loops)
    out["trace.uncovered_frac"] = _uncovered(tracer, selfs, fits + list(loops))
    out["trace.spans"] = len(names)
    return out


def _uncovered(tracer: Tracer, selfs, windows) -> float:
    """Share of the windows' wall time outside every non-container span."""
    covered = sum(
        t for n, t, s in zip(tracer.names, selfs, tracer.starts)
        if n not in CONTAINERS and any(lo <= s < hi for lo, hi in windows)
    )
    wall = sum(hi - lo for lo, hi in windows)
    return max(0.0, 1.0 - covered / wall) if wall else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
