"""The fused aggregation pipeline — EHNA's one train path — and the golden
pin of its training math, the tier-1 "training math unchanged" gate.

``golden_fit.json`` holds the per-epoch ``loss_history`` and the first five
``embeddings()`` rows of default-config fits at a fixed seed on a tiny
``temporal_sbm`` graph, for EHNA and the EHNA-SL / EHNA-RW ablations.  A
performance refactor must reproduce them; regenerate the file only for a
deliberate change to the method.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import EHNA
from repro.datasets import temporal_sbm

GOLDEN = json.loads((Path(__file__).parent / "golden_fit.json").read_text())

FAST = dict(dim=8, epochs=2, batch_size=16, num_walks=3, walk_length=4,
            num_negatives=2)


@pytest.fixture(scope="module")
def graph():
    return temporal_sbm(**GOLDEN["graph"])


class TestGoldenFit:
    @pytest.mark.parametrize("variant", ["default", "single_level", "random_walk"])
    def test_fit_matches_golden(self, graph, variant):
        """``default`` is the full model; ``single_level`` (EHNA-SL) rides the
        merged-walk path, ``random_walk`` (EHNA-RW) the uniform path."""
        golden = GOLDEN["variants"][variant]
        model = EHNA(seed=GOLDEN["seed"], **golden["overrides"]).fit(graph)
        np.testing.assert_allclose(
            model.loss_history, golden["loss_history"], rtol=1e-10, atol=0
        )
        np.testing.assert_allclose(
            model.embeddings()[:5], golden["embeddings_head"], rtol=1e-10, atol=0
        )


class TestFusedMatchesReference:
    def test_grouped_aggregate_forward_identical(self, graph):
        """The LRU walk cache stores ``Walk`` sets, so cached training pads
        them through the reference ``batch_walks``; with a cold cache the
        full routing (temporal + fallback groups) must give the array-native
        forward bitwise."""
        plain = EHNA(seed=0, **FAST)
        cached = EHNA(seed=0, walk_cache_size=64, **FAST)
        plain._build_runtime(graph)
        cached._build_runtime(graph)
        t_end = graph.time_span[1] + 1.0
        nodes = np.arange(10)
        anchors = [t_end if i % 3 else None for i in range(10)]
        z_plain = plain._grouped_aggregate(nodes, anchors)
        z_cached = cached._grouped_aggregate(nodes, anchors)
        assert cached.engine.cache.misses > 0
        np.testing.assert_array_equal(z_plain.data, z_cached.data)


class TestCacheInterplay:
    def test_walk_cache_still_works_with_fused_kernels(self, graph):
        m = EHNA(seed=0, walk_cache_size=64, **FAST).fit(graph)
        assert np.all(np.isfinite(m.embeddings()))
        assert m.engine.cache is not None
        assert m.engine.cache.hits + m.engine.cache.misses > 0
