"""Train-step benchmark: per-batch time of the EHNA training pipeline.

Times full ``EHNA.fit()`` runs on a Table-1 synthetic graph (the DBLP
stand-in family, laptop scale) and reports the per-batch step time of the
one train path: one grouped aggregation per batch over an array-native
:class:`WalkBatch` and the single-node BPTT LSTM kernel.  Throughput is
gated end to end by ``train.edges_per_s`` in the repository benchmark
(``perfbench``); this bench only records the table, plus a table of the
fused LSTM kernel's forward and backward time at the shapes a ``dblp`` fit
sends it.

The loss curve is pinned against the tier-1 golden fit
(``tests/core/golden_fit.json``) and written next to the timing table.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_train_step.py -q -s
"""

from __future__ import annotations

import json
import time
import timeit
from pathlib import Path

import numpy as np

from repro.core import EHNA
from repro.datasets import temporal_sbm
from repro.nn import StackedLSTM, Tensor

# Laptop-scale training config (the test-suite regime, where per-batch
# Python overhead matters as much as BLAS throughput).
CONFIG = dict(
    dim=16, epochs=1, batch_size=16, num_walks=4, walk_length=6, num_negatives=3
)
REPEATS = 3

# (batch, steps, masked) of the kernel calls in a default-config ``dblp``
# fit at hidden size 32: node-level and anchor-level sequences arrive with
# all-valid masks, walk-level summaries unmasked.
KERNEL_SHAPES = [(752, 7, True), (272, 3, True), (188, 4, False)]
KERNEL_HIDDEN = 32
KERNEL_RUNS = 25

GOLDEN = Path(__file__).parent.parent / "tests" / "core" / "golden_fit.json"


def _kernel_ms(batch: int, steps: int, masked: bool) -> tuple[float, float]:
    """Median forward and backward ms of one fused-kernel call."""
    rng = np.random.default_rng(0)
    lstm = StackedLSTM(KERNEL_HIDDEN, KERNEL_HIDDEN, 2, rng=rng)
    x_data = rng.normal(size=(batch, steps, KERNEL_HIDDEN))
    mask = np.ones((batch, steps)) if masked else None
    upstream = Tensor(rng.normal(size=(batch, KERNEL_HIDDEN)))
    forward, backward = [], []
    for _ in range(KERNEL_RUNS):
        x = Tensor(x_data, requires_grad=True)
        t0 = time.perf_counter()
        out = lstm.fused(x, mask=mask)
        t1 = time.perf_counter()
        (out * upstream).sum().backward()
        t2 = time.perf_counter()
        forward.append(t1 - t0)
        backward.append(t2 - t1)
        lstm.zero_grad()
    return float(np.median(forward)) * 1e3, float(np.median(backward)) * 1e3


def test_train_step_time(save_result):
    graph = temporal_sbm(num_nodes=60, num_edges=400, seed=3)
    num_batches = -(-graph.num_edges // CONFIG["batch_size"]) * CONFIG["epochs"]

    def run():
        EHNA(seed=0, **CONFIG).fit(graph)

    total = min(timeit.repeat(run, number=1, repeat=REPEATS))
    lines = [
        "Train-step time (temporal_sbm 60 nodes / 400 events, "
        f"{CONFIG['epochs']} epoch x {num_batches} batches, best of {REPEATS})",
        f"{'fit()':>10} {'per batch':>11}",
        f"{total:>9.2f}s {total / num_batches * 1e3:>9.1f}ms",
        "",
        f"Fused LSTM kernel, 2 layers, hidden {KERNEL_HIDDEN}, float64 "
        f"(median of {KERNEL_RUNS})",
        f"{'B x T':<10} {'mask':<10} {'forward':>9} {'backward':>9}",
    ]
    for batch, steps, masked in KERNEL_SHAPES:
        fwd, bwd = _kernel_ms(batch, steps, masked)
        mask = "all-valid" if masked else "none"
        lines.append(
            f"{f'{batch} x {steps}':<10} {mask:<10} {fwd:>7.1f}ms {bwd:>7.1f}ms"
        )
    save_result("bench_train_step", "\n".join(lines))


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
