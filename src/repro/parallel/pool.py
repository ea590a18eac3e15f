"""Worker-pool plumbing shared by the parallel trainers.

Two pieces, both deliberately small:

- :func:`spawn_pool` — a persistent ``ProcessPoolExecutor`` over the
  **spawn** start method.  Spawn (not fork) because the leader may hold
  threaded-BLAS state and live shared-memory mappings that are unsafe to
  fork; workers import fresh and attach to shared segments via picklable
  handles instead of inheriting memory.
- :func:`shard_seed_seq` — the per-shard child RNG: seeded from
  ``SeedSequence(entropy=(step_seed, shard_idx))``, where ``step_seed`` is
  one draw from the leader's stream per step.  Shards never share a stream
  and never consume the leader's stream beyond that single draw.  The
  shard layout itself is a function of the *workload and config only*
  (never of the worker count), so the substreams and the leader's
  shard-order reduction are identical no matter how many workers exist —
  the worker-count-invariance property the determinism tests pin.

``_WORKER`` is the per-process registry worker initializers populate
(attached graph and model); pool tasks read it instead of re-building
state per task — that is what makes the pool *persistent*.
"""

from __future__ import annotations

import multiprocessing as mp
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro.utils.validation import check_positive

#: Per-worker-process state, populated by pool initializers: the attached
#: graph/model live here for the lifetime of the worker, so tasks
#: pay attach-and-build costs once, not per task.
_WORKER: dict = {}


def spawn_pool(num_workers: int, initializer, initargs=()) -> ProcessPoolExecutor:
    """A persistent spawn-method pool with initialized workers."""
    check_positive("num_workers", num_workers)
    return ProcessPoolExecutor(
        max_workers=int(num_workers),
        mp_context=mp.get_context("spawn"),
        initializer=initializer,
        initargs=tuple(initargs),
    )


def shard_seed_seq(step_seed: int, shard_idx: int) -> np.random.SeedSequence:
    """The deterministic child seed of shard ``shard_idx`` at ``step_seed``."""
    return np.random.SeedSequence(entropy=(int(step_seed), int(shard_idx)))


def shard_rng(step_seed: int, shard_idx: int) -> np.random.Generator:
    """A fresh generator on the shard's substream (see :func:`shard_seed_seq`)."""
    return np.random.default_rng(shard_seed_seq(step_seed, shard_idx))
