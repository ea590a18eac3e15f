"""Train-step benchmark: per-batch time of the EHNA training pipeline.

Times full ``EHNA.fit()`` runs on a Table-1 synthetic graph (the DBLP
stand-in family, laptop scale) and reports the per-batch step time of the
one train path: one grouped aggregation per batch over an array-native
:class:`WalkBatch` and the single-node BPTT LSTM kernel.  Throughput is
gated end to end by ``train.edges_per_s`` in the repository benchmark
(``perfbench``); this bench only records the table.

The loss curve is pinned against the tier-1 golden fit
(``tests/core/golden_fit.json``) and written next to the timing table.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_train_step.py -q -s
"""

from __future__ import annotations

import json
import timeit
from pathlib import Path

import numpy as np

from repro.core import EHNA
from repro.datasets import temporal_sbm

# Laptop-scale training config (the test-suite regime, where per-batch
# Python overhead matters as much as BLAS throughput).
CONFIG = dict(
    dim=16, epochs=1, batch_size=16, num_walks=4, walk_length=6, num_negatives=3
)
REPEATS = 3

GOLDEN = Path(__file__).parent.parent / "tests" / "core" / "golden_fit.json"


def test_train_step_time(save_result):
    graph = temporal_sbm(num_nodes=60, num_edges=400, seed=3)
    num_batches = -(-graph.num_edges // CONFIG["batch_size"]) * CONFIG["epochs"]

    def run():
        EHNA(seed=0, **CONFIG).fit(graph)

    total = min(timeit.repeat(run, number=1, repeat=REPEATS))
    save_result(
        "bench_train_step",
        "\n".join([
            "Train-step time (temporal_sbm 60 nodes / 400 events, "
            f"{CONFIG['epochs']} epoch x {num_batches} batches, best of {REPEATS})",
            f"{'fit()':>10} {'per batch':>11}",
            f"{total:>9.2f}s {total / num_batches * 1e3:>9.1f}ms",
        ]),
    )


def test_loss_curve_matches_golden_pin(save_result):
    golden = json.loads(GOLDEN.read_text())
    graph = temporal_sbm(**golden["graph"])
    expected = golden["variants"]["default"]["loss_history"]
    model = EHNA(seed=golden["seed"]).fit(graph)
    lines = ["Default-config loss trajectory vs the golden pin (per epoch)",
             f"{'epoch':<7} {'observed':>12} {'golden':>12}"]
    for e, (a, b) in enumerate(zip(model.loss_history, expected)):
        lines.append(f"{e:<7} {a:>12.6f} {b:>12.6f}")
    save_result("bench_train_step_loss", "\n".join(lines))
    np.testing.assert_allclose(model.loss_history, expected, rtol=1e-10, atol=0)
