"""Sharded propagation: shard-local compute + additive combine.

The key observation making CKAT's propagation parallelizable (the paper's
future-work note) is that Eq. 3's neighborhood sum is *additive over edges*:

    e_Nh = Σ_{edges of h} w_e · e_tail

so any edge partition can compute shard-local partial sums independently and
a final elementwise add (an all-reduce in the distributed setting) restores
the exact monolithic result.  These functions implement that schedule on one
node; tests assert bitwise-tolerance equality with the monolithic path, and
the A2 bench measures how partition strategy affects the replication factor
(the proxy for communication volume).
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.parallel.executor import MapExecutor, SerialMap
from repro.parallel.partition import EdgePartition

__all__ = ["sharded_segment_sum", "sharded_propagation_step"]


def _shard_partial(
    args,
) -> np.ndarray:
    heads, tails, weights, embeddings, num_entities, edge_chunk = args
    out = np.zeros((num_entities, embeddings.shape[1]), dtype=embeddings.dtype)
    step = edge_chunk if edge_chunk is not None else max(len(heads), 1)
    # np.add.at processes entries strictly in order, so chunking the edge
    # walk changes only the size of the gathered (chunk, d) message buffer,
    # never the accumulation order — results stay bit-identical.
    for lo in range(0, len(heads), step):
        sl = slice(lo, lo + step)
        np.add.at(out, heads[sl], weights[sl, None] * embeddings[tails[sl]])
    return out


def sharded_segment_sum(
    heads: np.ndarray,
    tails: np.ndarray,
    weights: np.ndarray,
    embeddings: np.ndarray,
    partition: EdgePartition,
    executor: Optional[MapExecutor] = None,
    edge_chunk: Optional[int] = None,
) -> np.ndarray:
    """Weighted neighbor sums computed shard-by-shard then combined.

    Equivalent to ``Σ_e w_e · emb[tail_e]`` grouped by head — the inner
    reduction of CKAT Eq. 3 — but with each shard contributing a partial
    (num_entities, d) buffer that is summed at the end.  ``edge_chunk``
    bounds each shard's gathered-message scratch to (edge_chunk, d) — at
    streamed-graph edge counts the unchunked gather is the largest transient
    of the whole propagation step.
    """
    if not (len(heads) == len(tails) == len(weights)):
        raise ValueError("heads, tails and weights must have equal length")
    if edge_chunk is not None and edge_chunk <= 0:
        raise ValueError(f"edge_chunk must be positive, got {edge_chunk}")
    executor = executor or SerialMap()
    num_entities = embeddings.shape[0]
    tasks = []
    for shard in range(partition.num_shards):
        idx = partition.edge_indices(shard)
        tasks.append((heads[idx], tails[idx], weights[idx], embeddings, num_entities, edge_chunk))
    partials: List[np.ndarray] = executor.map(_shard_partial, tasks)
    total = partials[0]
    for p in partials[1:]:
        total += p
    return total


def sharded_propagation_step(
    heads: np.ndarray,
    tails: np.ndarray,
    weights: np.ndarray,
    embeddings: np.ndarray,
    partition: EdgePartition,
    aggregate: Callable[[np.ndarray, np.ndarray], np.ndarray],
    executor: Optional[MapExecutor] = None,
) -> np.ndarray:
    """One full propagation step: sharded neighbor sum then aggregation.

    ``aggregate(self_emb, neigh_emb)`` is the (local, embarrassingly
    parallel) aggregator — e.g. CKAT's LeakyReLU(W(e_h ‖ e_Nh)) evaluated
    with frozen weights.
    """
    neigh = sharded_segment_sum(heads, tails, weights, embeddings, partition, executor)
    return aggregate(embeddings, neigh)
