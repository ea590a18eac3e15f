"""Core-scaling benchmark: sync data-parallel training over shared memory.

Two measurements, written to ``benchmarks/results/parallel.txt``:

1. **train scaling** — sync data-parallel ``EHNA.fit`` steps/s at 2/4/8
   workers, with the ``num_workers=0`` inline run as the bitwise
   comparator for the pooled loss trajectories.
2. **candidate_cap delta** — uncapped vs windowed ``_temporal_raw`` gather
   on a hub-heavy graph.

The report states ``os.cpu_count()`` next to the curve: on a single-core
container the pooled runs measure dispatch overhead, not speedup — the
numbers are recorded as observed, never extrapolated.

Excluded from tier-1 (``scale`` marker).  Run:  make bench-parallel
(or  PYTHONPATH=src python -m pytest benchmarks/bench_parallel.py -q -s -m scale)
"""

from __future__ import annotations

import os
import time as _time

import numpy as np
import pytest

from repro.core import EHNA
from repro.graph.temporal_graph import TemporalGraph
from repro.walks.engine import BatchedWalkEngine

pytestmark = [pytest.mark.scale, pytest.mark.parallel]

WORKER_LADDER = (2, 4, 8)

# Hub-gather workload: a mid-size graph with a few hub nodes.
WALK_NODES = 3_000
WALK_EVENTS = 40_000
WALK_STARTS = 4_096
NUM_WALKS = 2
WALK_LENGTH = 8

# Training workload: small enough that 8 pooled fits stay tractable on one
# core, large enough that a step does real aggregator work.
TRAIN_CFG = dict(
    dim=16,
    epochs=1,
    batch_size=32,
    num_walks=2,
    walk_length=5,
    parallel_shards=8,
)

CAP = 64  # candidate_cap window for the hub-gather delta


def make_graph(num_nodes: int, num_events: int, hub_fraction: float = 0.3, seed: int = 0):
    """A temporal graph where ``hub_fraction`` of events hit 8 hub nodes."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_nodes, num_events)
    hubs = rng.random(num_events) < hub_fraction
    src[hubs] = rng.integers(0, 8, int(hubs.sum()))
    dst = rng.integers(0, num_nodes, num_events)
    keep = src != dst
    return TemporalGraph.from_edges(
        src[keep], dst[keep], rng.uniform(0.0, 100.0, int(keep.sum()))
    )


def test_core_scaling_curve(save_result):
    cores = os.cpu_count() or 1
    lines = [
        "Parallel benchmark: sync data-parallel training",
        f"machine: os.cpu_count()={cores} — pooled speedups are bounded by "
        f"physical cores; on {cores} core(s) the ladder below measures "
        + ("real parallelism" if cores >= 2 else "dispatch overhead only"),
        "",
    ]

    # -- 1. sync training scaling (+ trajectory invariance gate) -------
    train_graph = make_graph(200, 2_000, seed=3)
    inline = EHNA(seed=7, num_workers=0, **TRAIN_CFG)
    t0 = _time.perf_counter()
    inline.fit(train_graph)
    inline_s = _time.perf_counter() - t0
    steps = -(-train_graph.num_edges // TRAIN_CFG["batch_size"]) * TRAIN_CFG["epochs"]

    lines.append(
        f"train scaling: sync data-parallel EHNA, {train_graph.num_edges:,} "
        f"edges, {steps} optimizer steps ({TRAIN_CFG['parallel_shards']} shards)"
    )
    lines.append(f"{'workers':>8} {'time':>10} {'steps/s':>12} {'vs inline':>10}")
    lines.append(
        f"{'inline':>8} {inline_s * 1e3:>8.0f}ms {steps / inline_s:>12.2f} "
        f"{'1.00x':>10}"
    )
    for workers in WORKER_LADDER:
        model = EHNA(seed=7, num_workers=workers, **TRAIN_CFG)
        t0 = _time.perf_counter()
        model.fit(train_graph)
        elapsed = _time.perf_counter() - t0
        # Bitwise: every pooled trajectory equals the inline comparator.
        assert model.loss_history == inline.loss_history
        np.testing.assert_array_equal(model.embeddings(), inline.embeddings())
        lines.append(
            f"{workers:>8} {elapsed * 1e3:>8.0f}ms {steps / elapsed:>12.2f} "
            f"{inline_s / elapsed:>9.2f}x"
        )
    lines.append("pooled trajectories bitwise-equal to inline: yes (asserted)")
    lines.append("")

    # -- 2. candidate_cap hub-gather delta -----------------------------
    graph = make_graph(WALK_NODES, WALK_EVENTS)
    anchors = np.full(WALK_STARTS, float(graph.time.max()) + 1.0)
    total_walks = WALK_STARTS * NUM_WALKS
    hub_rng = np.random.default_rng(5)
    hub_starts = hub_rng.integers(0, 8, size=WALK_STARTS)  # all walks at hubs
    uncapped = BatchedWalkEngine(graph)
    capped = BatchedWalkEngine(graph, candidate_cap=CAP)
    t0 = _time.perf_counter()
    uncapped.temporal_walk_batch(
        hub_starts, anchors, NUM_WALKS, WALK_LENGTH, np.random.default_rng(9)
    )
    uncapped_s = _time.perf_counter() - t0
    t0 = _time.perf_counter()
    capped.temporal_walk_batch(
        hub_starts, anchors, NUM_WALKS, WALK_LENGTH, np.random.default_rng(9)
    )
    capped_s = _time.perf_counter() - t0
    lines.append(
        f"candidate_cap delta: {total_walks:,} hub-anchored walks, "
        f"cap={CAP} vs unbounded history"
    )
    lines.append(
        f"  uncapped {uncapped_s * 1e3:>8.0f}ms   capped {capped_s * 1e3:>8.0f}ms "
        f"  ({uncapped_s / capped_s:.2f}x; different sampler — see the "
        "engine's sampling note)"
    )

    save_result("parallel", "\n".join(lines))
