"""Use every core: a shared-memory graph feeding worker pools.

Run:  python examples/parallel_training.py
"""

from repro.baselines import Node2Vec
from repro.core import EHNA
from repro.datasets import load


def main() -> None:
    # One shared-memory copy of the event columns + CSR/alias indexes,
    # attachable from any worker process by name.  load(..., shared=True)
    # caches it like any other backend; graph.to_shared() converts an
    # in-memory graph directly.
    graph = load("digg", scale=0.2, seed=7, shared=True)
    print(f"backend={graph.storage_backend} segment={graph.shared_handle.name}")

    # Sync data-parallel EHNA: workers attach the shared graph, train their
    # shards against a broadcast snapshot of the flat parameter vector, and
    # the parent averages gradients into one Adam step — deterministic end
    # to end.  The shard layout — never the worker count — is the sampling
    # scheme: shard i draws from SeedSequence((step_seed, i)), so any pool
    # size (num_workers=0 runs the same shards inline, the comparator the
    # tests pin against) gives bitwise-identical results.
    model = EHNA(dim=16, epochs=2, num_workers=2, parallel_shards=8, seed=0)
    model.fit(graph)
    print(f"EHNA sync x2 workers: final loss {model.loss_history[-1]:.4f}")

    # Hogwild for the skip-gram baselines: lock-free workers race on shared
    # weight tables.  Fastest, but reproducible statistically, not bitwise.
    n2v = Node2Vec(dim=16, num_walks=3, walk_length=8, seed=0, num_workers=2)
    n2v.fit(graph)
    print(f"node2vec hogwild x2 workers: embeddings {n2v.embeddings().shape}")


# Worker pools use the spawn start method, which re-imports this module in
# each child — pool-spawning scripts always need the __main__ guard.
if __name__ == "__main__":
    main()
