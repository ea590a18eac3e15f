"""The three benchmark workloads and the output checks they run.

Every workload runs EHNA's whole life cycle on inputs generated from the
workload seed — set up the data, fit, score link prediction, then serve a
stream through :class:`~repro.stream.OnlineService` — and differs in which
phase dominates (see README.md for why each was chosen):

- ``train-dblp``: DBLP-like co-authorship graph; the float64 fit dominates
  and the LSTM does most of its work.
- ``train-hub``: Zipf-popularity event log written to a memmap store; hub
  degrees reach the thousands, so the O(degree) walk gather dominates.
- ``serve-stream``: float32 model fitted on a Zipf prefix during set-up;
  the closed serving loop over the suffix dominates.

:class:`Checks` counts every public operation attempted and every one that
failed an output check; :func:`run_pass` returns the measured samples.
"""

from __future__ import annotations

import hashlib
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import datasets
from repro.base import EmbeddingMethod
from repro.core.model import EHNA
from repro.datasets import generators
from repro.graph.temporal_graph import TemporalGraph
from repro.stream import OnlineService
from repro.tasks.link_prediction import LinkPredictionTask

#: Workload parameters at full size and at the self-test's smoke size.
#: ``setups`` set-ups per burst (see :func:`run_pass`); ``setup_s`` is
#: their median over the run.  serve-stream's set-up includes a fit, so it
#: makes one.  ``served`` caps the held-out events streamed through the
#: service (None: all).  train-hub holds out its newer half, ~190 novel
#: pairs for link prediction (the newest 20% of a 4,000-event log at
#: exponent 2.0 held 21-44, and the AUC moved with them), and serves the
#: first 1,600 events: its one serve episode per run then makes 32 ingest
#: calls, not 16.
WORKLOADS = {
    "train-dblp": dict(dataset="dblp", scale=1.0, holdout=0.2, served=None,
                       precision="float64", setups=5),
    "train-hub": dict(events=6400, nodes=1000, exponent=1.8, holdout=0.5,
                      served=1600, precision="float64", setups=10),
    "serve-stream": dict(events=2000, nodes=300, exponent=1.2, holdout=0.5,
                         served=None, precision="float32", setups=1),
}
SMOKE = {
    "train-dblp": dict(scale=0.15, setups=2),
    "train-hub": dict(events=300, nodes=40, served=100, setups=2),
    "serve-stream": dict(events=300, nodes=40),
}
#: The serve traffic, one shape for every workload: the serving prototype's
#: 50-event micro-batches, each followed by 8 ``encode`` calls of 4 hub + 4
#: tail nodes; ``absorb`` every 5 batches (250 events), ``checkpoint``
#: every 10.  One encode call per batch would give ~20 latency samples per
#: serve-stream episode, which ``absorb`` dominates; 8 give ~160.
SERVE = dict(batch_events=50, queries_per_batch=8, query_nodes=8,
             absorb_every=5, checkpoint_every=10)
#: Negative-pair samples the link-prediction AUC is averaged over.
NEGATIVE_DRAWS = 8
#: Rounds repeat until at least this many encode calls were made, so p90
#: has >= 10 samples beyond it.
MIN_QUERIES = {"full": 100, "smoke": 1}


def params(workload: str, size: str) -> dict:
    spec = dict(WORKLOADS[workload], **SERVE)
    if size == "smoke":
        spec.update(SMOKE[workload])
    return spec


class Checks:
    """Counts attempted public operations and those failing a check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        """Record one attempted operation and whether its outputs held."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def require(self, ok: bool, what: str) -> None:
        """A run-level check (determinism, tracing): fails without an op."""
        if not ok:
            self.failed += 1
            self.problems.append(what)


def unit_rows(z: np.ndarray) -> bool:
    """Finite rows of unit L2 norm (the aggregator normalizes ``z``)."""
    tol = 1e-4 if z.dtype == np.float32 else 1e-9
    return bool(
        np.all(np.isfinite(z)) and np.all(np.abs(np.linalg.norm(z, axis=1) - 1) < tol)
    )


# ----------------------------------------------------------------------
# set-up: inputs generated from the seed
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    """What set-up hands the measured phases."""

    train_graph: TemporalGraph
    full_graph: TemporalGraph  # train graph + held-out suffix
    stream: tuple  # (src, dst, time, weight) of the served held-out events
    model_path: Path | None = None  # serve-stream: the prefix-fitted model
    fit_s: float = 0.0


def _zipf_graph(spec: dict, seed: int, store: Path) -> TemporalGraph:
    storage = generators.generate_scaled_events(
        store,
        num_events=spec["events"],
        num_nodes=spec["nodes"],
        popularity_exponent=spec["exponent"],
        seed=seed,
    )
    return TemporalGraph.from_storage(storage)


def query_plan(inputs: Inputs, spec: dict, seed: int) -> list:
    """The client's plan: per batch, one node array per encode call.

    Mixed hub and tail nodes per encode call, never the table fast path.

    Half of each call's nodes come from the 16 busiest prefix nodes, half
    from the remaining nodes with prefix history.  A call is anchored at
    its batch's earliest time ``t_lo``, and ``encode`` answers from the
    final-embedding table only for a node whose last event time equals the
    anchor — so every node with any event at exactly ``t_lo`` (co-authors
    of one paper share a timestamp) is left out, and every answer
    aggregates live.
    """
    full, rng = inputs.full_graph, np.random.default_rng(seed + 1)
    deg = inputs.train_graph.degrees()
    order = np.argsort(-deg, kind="stable")
    hubs, tail = order[:16], order[16:][deg[order[16:]] > 0]
    t = inputs.stream[2]
    b, q, k = spec["batch_events"], spec["queries_per_batch"], spec["query_nodes"]
    plan = []
    for lo in range(0, t.size, b):
        first, last = (np.searchsorted(full.time, t[lo], side=s) for s in ("left", "right"))
        banned = np.union1d(full.src[first:last], full.dst[first:last])
        calls = []
        for _ in range(q):
            h = rng.choice(np.setdiff1d(hubs, banned), k // 2, replace=False)
            s = rng.choice(np.setdiff1d(tail, banned), k - k // 2, replace=False)
            calls.append(np.concatenate([h, s]))
        plan.append(calls)
    return plan


def setup(workload: str, spec: dict, seed: int, work: Path, checks: Checks) -> Inputs:
    """Generate the workload's inputs; serve-stream also fits its prefix.

    This is what ``setup_s`` times: generation, store write and open, the
    holdout split and, on serve-stream, the prefix fit and its save.
    """
    if "dataset" in spec:
        datasets.load_cache_clear()  # every set-up generates afresh
        graph = datasets.load(spec["dataset"], scale=spec["scale"], seed=seed)
    else:
        graph = _zipf_graph(spec, seed, work / "store")
    train, held = graph.split_recent(spec["holdout"])
    stream = tuple(
        np.ascontiguousarray(col[held[: spec["served"]]])
        for col in (graph.src, graph.dst, graph.time, graph.weight)
    )
    inputs = Inputs(train, graph, stream)
    if workload == "serve-stream":
        model, t0, t1 = fit_once(train, spec, seed, checks)
        inputs.fit_s = t1 - t0
        inputs.model_path = model.save(work / "prefix-model")
    return inputs


# ----------------------------------------------------------------------
# measured phases
# ----------------------------------------------------------------------
def fit_once(train: TemporalGraph, spec: dict, seed: int, checks: Checks):
    """One default-config, one-epoch fit; returns (model, start, end)."""
    model = EHNA(seed=seed, epochs=1, precision=spec["precision"])
    t0 = time.perf_counter()
    model.fit(train)
    t1 = time.perf_counter()
    checks.op(
        bool(np.all(np.isfinite(model.loss_history))) and unit_rows(model.embeddings()),
        "fit: loss history not finite or embeddings not unit-norm",
    )
    return model, t0, t1


def link_auc(model, inputs: Inputs, spec: dict, seed: int, checks: Checks) -> float:
    """Link-prediction AUC, untimed: the mean over the four Table II
    operators and over ``NEGATIVE_DRAWS`` samples of negative pairs.

    With a few hundred held-out positive pairs one negative sample moves
    the AUC by a few hundredths; averaging the draws keeps the metric a
    property of the model rather than of the draw.
    """
    task = LinkPredictionTask(fraction=spec["holdout"])
    aucs = []
    for draw in range(NEGATIVE_DRAWS):
        data = task.prepare(inputs.full_graph, np.random.default_rng([seed, draw]))
        scores = task.evaluate(model, data, np.random.default_rng([seed, draw]))
        aucs.extend(v for k, v in scores.items() if k.endswith("/auc"))
    auc = float(np.mean(aucs))
    checks.require(0.0 < auc <= 1.0, f"link-prediction AUC out of range: {auc}")
    return auc


@dataclass
class Episode:
    """One serve episode's measurements and its answers' digest."""

    start: float
    loop_s: float
    events: int
    absorbed: int
    absorb_s: float
    ingest_rate: list = field(default_factory=list)  # events/s of each ingest call
    encode_ms: list = field(default_factory=list)
    digest: str = ""


def serve_episode(model_path: Path, inputs: Inputs, plan: list, spec: dict,
                  work: Path, checks: Checks) -> Episode:
    """Closed loop, one client: ingest, encode, absorb/checkpoint, recover.

    The client calls every operation itself (no automatic absorb or
    checkpoint), so each public call is timed alone.
    """
    serve_dir = work / "serve"
    shutil.rmtree(serve_dir, ignore_errors=True)  # a WAL must start empty
    serve_dir.mkdir()
    model = EmbeddingMethod.load(model_path)
    service = OnlineService(
        model, wal_dir=serve_dir / "wal", checkpoint_path=serve_dir / "ckpt",
        train_every=None, checkpoint_every=None,
    )
    prefix = service.graph.num_edges
    src, dst, t, w = inputs.stream
    b = spec["batch_events"]
    digest = hashlib.sha256()
    ep = Episode(0.0, 0.0, 0, 0, 0.0)

    def absorb():
        pending = service.staleness
        a = time.perf_counter()
        service.absorb()
        ep.absorb_s += time.perf_counter() - a
        ep.absorbed += pending
        checks.op(service.staleness == 0, "absorb: staleness not 0 afterwards")

    def checkpoint():
        checks.op(service.checkpoint().is_file(), "checkpoint: archive not published")

    ep.start = time.perf_counter()
    for i, calls in enumerate(plan):
        sl = slice(i * b, (i + 1) * b)
        a = time.perf_counter()
        service.ingest((src[sl], dst[sl], t[sl], w[sl]))
        ep.ingest_rate.append(t[sl].size / (time.perf_counter() - a))
        ep.events += t[sl].size
        checks.op(service.staleness > 0, "ingest: batch not pending")
        for nodes in calls:
            a = time.perf_counter()
            z = service.encode(nodes, at=float(t[sl][0]))
            ep.encode_ms.append((time.perf_counter() - a) * 1e3)
            checks.op(unit_rows(z), "encode: rows not finite and unit-norm")
            digest.update(z.tobytes())
        if (i + 1) % spec["absorb_every"] == 0:
            absorb()
        if (i + 1) % spec["checkpoint_every"] == 0:
            checkpoint()
    if service.staleness:
        absorb()
    checkpoint()
    ep.loop_s = time.perf_counter() - ep.start

    graph = service.graph
    checks.require(
        service.staleness == 0 and graph.num_edges == prefix + ep.events,
        "serve: stale events or lost edges after the final absorb",
    )
    service.close()
    recovered = OnlineService.recover(service.checkpoint_path, serve_dir / "wal")
    same = all(
        np.array_equal(getattr(recovered.graph, c), getattr(graph, c))
        for c in ("src", "dst", "time", "weight")
    )
    checks.op(same, "recover: event table differs from the live service")
    recovered.close()
    digest.update(graph.time.tobytes())
    ep.digest = digest.hexdigest()
    return ep


# ----------------------------------------------------------------------
# one pass over a workload
# ----------------------------------------------------------------------
@dataclass
class PassResult:
    setup_s: list = field(default_factory=list)
    edges_per_s: list = field(default_factory=list)
    loss_history: list = field(default_factory=list)
    auc: float = float("nan")
    episodes: list = field(default_factory=list)
    loops: list = field(default_factory=list)  # (start, end) of each serve loop
    window_s: float = 0.0  # measured wall time: fits plus serve loops
    fits: int = 0


def run_pass(workload: str, spec: dict, seed: int, seconds: float, work: Path,
             checks: Checks, setups: int, rounds: int | None,
             min_queries: int) -> PassResult:
    """Measure rounds; each starts with a burst of ``setups`` timed set-ups.

    After its set-ups a round makes one fit and one serve episode
    (``train-*``), or one serve episode of the model its set-up fitted
    (``serve-stream``).  Rounds repeat until ``seconds`` of fits and serve
    loops have been measured and at least ``min_queries`` encode calls
    made, or exactly ``rounds`` times (the traced comparison).  Set-ups,
    fits and episodes alternate over the whole run, so a short fast or
    slow spell of the machine moves them alike: on ``train-*``, whose
    set-ups take milliseconds, a burst also follows the fit and the
    episode, and its inputs go unused.
    """
    res = PassResult()
    plan = None
    model_path = None
    spare = work / "spare"  # unused set-ups keep off the live inputs' store
    spare.mkdir(exist_ok=True)

    def timed_setups(where: Path) -> Inputs:
        for _ in range(setups):
            shutil.rmtree(where / "store", ignore_errors=True)  # the last set-up's, untimed
            t0 = time.perf_counter()
            inputs = setup(workload, spec, seed, where, checks)
            res.setup_s.append(time.perf_counter() - t0)
            if inputs.fit_s:
                res.edges_per_s.append(inputs.train_graph.num_edges / inputs.fit_s)
        return inputs

    def more() -> bool:
        if rounds is not None:
            return len(res.episodes) < rounds
        served = sum(len(e.encode_ms) for e in res.episodes)
        return res.window_s < seconds or served < min_queries

    while more():
        inputs = timed_setups(work)
        if plan is None:
            plan = query_plan(inputs, spec, seed)  # untimed: the client's plan
        if workload == "serve-stream":
            model_path = inputs.model_path
            if not res.episodes:
                model = EmbeddingMethod.load(model_path)
                res.loss_history = list(model.loss_history)
                res.auc = link_auc(model, inputs, spec, seed, checks)
        else:
            model, t0, t1 = fit_once(inputs.train_graph, spec, seed, checks)
            res.fits += 1
            res.window_s += t1 - t0
            res.edges_per_s.append(inputs.train_graph.num_edges / (t1 - t0))
            if model_path is None:
                res.loss_history = list(model.loss_history)
                res.auc = link_auc(model, inputs, spec, seed, checks)
                model_path = model.save(work / "fitted-model")
            else:
                checks.require(
                    model.loss_history == res.loss_history,
                    "fit: repeated fits at one seed differ",
                )
            timed_setups(spare)
        ep = serve_episode(model_path, inputs, plan, spec, work, checks)
        res.loops.append((ep.start, ep.start + ep.loop_s))
        res.window_s += ep.loop_s
        if res.episodes:
            checks.require(
                ep.digest == res.episodes[0].digest,
                "serve: repeated episodes at one seed answered differently",
            )
        res.episodes.append(ep)
        if workload != "serve-stream":
            timed_setups(spare)
    return res


def end_to_end(res: PassResult) -> dict[str, float]:
    """The end-to-end metrics of one untraced pass."""
    eps = res.episodes
    lat = [x for e in eps for x in e.encode_ms]
    return {
        "setup_s": statistics.median(res.setup_s),
        "train.edges_per_s": statistics.median(res.edges_per_s),
        "quality.auc": res.auc,
        "stream.events_per_s": statistics.median(e.events / e.loop_s for e in eps),
        "ingest.events_per_s": statistics.median(r for e in eps for r in e.ingest_rate),
        "absorb.events_per_s": sum(e.absorbed for e in eps) / sum(e.absorb_s for e in eps),
        "encode.p50_ms": float(np.percentile(lat, 50)),
        "encode.p90_ms": float(np.percentile(lat, 90)),
    }
