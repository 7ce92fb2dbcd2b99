"""Workload definitions and the seeded input generators.

Every run follows the paper's whole path on one facility: trace → CKG →
CKAT build → freeze into a served ``ScoreIndex`` → CKAT training in
``attention_mode="epoch"`` (what every paper table runs), with a
full-ranking eval and an HTTP serving round after every epoch.  The two
workloads differ in which layers carry the load; the reasons are recorded
next to each definition below.

``--seed`` feeds the content of the request stream (see :class:`Traffic`).
The dataset recipe and the model/training seed are the paper protocol's
fixed ones (``DATASET_SEED``, ``MODEL_SEED``), so every run trains the same
model and recall/ndcg are bit-identical from run to run: any change in them
is caused by the program, not by the seed.  Letting the seed reach them
instead spreads recall@20 by ~27% over dataset seeds (OOI) and ndcg@20 by
~17% over training seeds (GAGE, 4 epochs; IQR over median of 5 seeds), more
than a regression bound can absorb.  The program under test receives only
what these generators produce.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Iterator, List, Optional

import numpy as np


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    epochs: int
    setup_repeats: int
    why: str


WORKLOADS = {
    # OOI full scale: ~300 users, ~790 items, ~1.2k entities, ~27k
    # propagation triples.  The graph is small, so per-op tape overhead, the
    # TransR phase (~35-50% of an epoch) and Adam.step take large shares
    # while propagation takes little: an optimizer, TransR or per-op-overhead
    # change shows here, a propagation change should barely move.  Its 300
    # users fit in the server's 512-entry user LRU and the warm-up reads
    # every user once, so every measured known-user read is a cache hit.
    # An epoch costs ~1 s, so 16 epochs give 15 epoch_s samples spread over
    # the run; with 8, run medians split into a fast and a slow group.
    "ooi_ckat": Workload(
        name="ooi_ckat",
        dataset="ooi",
        epochs=16,
        setup_repeats=15,
        why="small graph: TransR phase, Adam and per-op overhead dominate an epoch; "
        "all 300 users fit the serving LRU",
    ),
    # GAGE full scale: ~900 users, ~2k items, ~3.8k entities, ~95k triples.
    # Full-graph propagation in every minibatch (spmm, concat, take_rows
    # backward, matmul, leaky_relu, l2_normalize) takes ~80% of the epoch
    # and TransR ~5%: a propagation change shows here, a TransR change does
    # not.  900 users overflow the 512-entry user LRU, so Zipf reads mix
    # hits and misses.  An epoch costs ~6-7 s; 5 epochs (4 epoch_s samples)
    # keep a traced run, which trains twice, well inside its time limit.
    "gage_ckat": Workload(
        name="gage_ckat",
        dataset="gage",
        epochs=5,
        setup_repeats=7,
        why="large graph: full-graph propagation dominates an epoch; "
        "900 users overflow the serving LRU",
    ),
}

#: Dataset recipe and model/training seeds shared by every run (see the
#: module docstring); 7 is the package's default dataset seed.
DATASET_SEED = 7
MODEL_SEED = 0
#: Top-K for evaluation and for every served request (the paper's K).
K = 20
#: Full-ranking evaluations after each epoch.
EVAL_REPEATS = 3
#: Share of serving operations that are fold-in writes.
FOLDIN_SHARE = 0.10
FOLDIN_MIN_ITEMS, FOLDIN_MAX_ITEMS = 5, 20
#: Zipf exponent of known-user popularity.
ZIPF_S = 1.0
#: Serving connections (keep-alive), in both phases.
CONNECTIONS = 2
#: Unmeasured Zipf operations before the closed loop, after one read of
#: every user: warms the LRU and code paths.
WARMUP_OPS = 300
#: Share of ``--seconds`` given to the closed loop; the open loop gets the rest.
CLOSED_SHARE = 0.25
#: Offered rate of the open loop, operations/s: 10-20% of closed-loop
#: saturation on the reference box (see README.md).
OPEN_RATE = 60.0
#: Serving phases, each with its own operation streams.
PHASES = ("warmup", "closed", "open")
#: Seed of the traffic's shape, fixed across runs (see :class:`Traffic`).
SHAPE_SEED = 2021


@dataclasses.dataclass(frozen=True)
class Op:
    """One serving operation: a known-user read, or a fold-in then its read."""

    user: Optional[int] = None
    items: Optional[List[int]] = None


class Traffic:
    """Seeded request stream: Zipf-skewed reads with ~10% fold-in writes.

    The stream's *shape* is the same in every run: the Poisson arrival times
    of the open loop, which operations are fold-ins, and how many items each
    fold-in carries.  Its *content* comes from the run's seed: which users
    are hot under Zipf(``ZIPF_S``), which user each read names, and which
    items each fold-in observes.  With the shape drawn from the seed too,
    recommend p99 spread by ~0.57 IQR over median over 10 seeds (OOI),
    because where fold-ins land among the arrivals decides the tail.

    Each phase has its own streams, so how many operations the closed loop
    gets through never changes what the open loop sends.
    """

    def __init__(self, seed: int, num_users: int, num_items: int):
        content = np.random.SeedSequence(seed).spawn(len(PHASES) + 1)
        shape = np.random.SeedSequence(SHAPE_SEED).spawn(len(PHASES) + 1)
        self._users = np.random.default_rng(content[0]).permutation(num_users)
        self._arrivals = shape[0]
        self._content = dict(zip(PHASES, content[1:]))
        self._shape = dict(zip(PHASES, shape[1:]))
        ranks = np.arange(1, num_users + 1, dtype=np.float64)
        weights = ranks**-ZIPF_S
        self._cdf = np.cumsum(weights / weights.sum())
        self._num_items = num_items

    def stream(self, phase: str) -> Iterator[Op]:
        """Endless operation stream of one phase."""
        shape = np.random.default_rng(self._shape[phase])
        content = np.random.default_rng(self._content[phase])
        while True:
            if shape.random() < FOLDIN_SHARE:
                n = int(shape.integers(FOLDIN_MIN_ITEMS, FOLDIN_MAX_ITEMS + 1))
                items = content.choice(self._num_items, size=n, replace=False)
                yield Op(items=sorted(int(i) for i in items))
            else:
                rank = int(np.searchsorted(self._cdf, content.random(), side="right"))
                yield Op(user=int(self._users[min(rank, len(self._users) - 1)]))

    def warmup(self) -> List[Op]:
        """One read of every user, then ``WARMUP_OPS`` operations."""
        sweep = [Op(user=int(u)) for u in range(len(self._users))]
        return sweep + list(itertools.islice(self.stream("warmup"), WARMUP_OPS))

    def arrival_gaps(self) -> Iterator[float]:
        """Open-loop inter-arrival gaps: a Poisson process at ``OPEN_RATE``.

        Independent users arrive independently.  Evenly spaced arrivals
        would hide queueing until a fold-in outlasts the spacing, then show
        it all at once.
        """
        rng = np.random.default_rng(self._arrivals)
        while True:
            yield float(rng.exponential(1.0 / OPEN_RATE))
