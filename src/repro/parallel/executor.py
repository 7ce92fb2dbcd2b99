"""Map executors: serial and process-pool with a common interface.

Follows the mpi4py-style discipline from the domain guides: workers receive
picklable chunks, results are gathered in submission order, and the serial
backend is the reference implementation the parallel one must match.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["MapExecutor", "SerialMap", "ProcessMap", "chunk_indices"]

logger = logging.getLogger(__name__)


def chunk_indices(n: int, num_chunks: int) -> List[range]:
    """Split ``range(n)`` into ``num_chunks`` contiguous, balanced ranges.

    The first ``n % num_chunks`` chunks get one extra element; empty chunks
    are omitted, so the result may be shorter than ``num_chunks``.
    """
    if n < 0 or num_chunks <= 0:
        raise ValueError("n must be >= 0 and num_chunks > 0")
    base, extra = divmod(n, num_chunks)
    out: List[range] = []
    start = 0
    for i in range(num_chunks):
        size = base + (1 if i < extra else 0)
        if size:
            out.append(range(start, start + size))
        start += size
    return out


class MapExecutor:
    """Interface: ordered map of a function over items."""

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        raise NotImplementedError

    def close(self) -> None:
        """Release worker resources (no-op for serial)."""


class SerialMap(MapExecutor):
    """Reference backend: a plain loop."""

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        return [fn(item) for item in items]


class ProcessMap(MapExecutor):
    """Process-pool backend (requires picklable ``fn`` and items).

    ``max_workers`` is required: callers size the pool from their own
    worker option.  One worker is equivalent to (slightly slower than) the
    serial backend, but exercises the same code path as multi-core runs.

    ``map`` is failure-aware: a worker exception (or a hard worker crash
    that breaks the pool) is logged with the failing item's index, retried
    once in a worker, and finally re-run in-process — so one bad item
    degrades a sharded run to partially-serial instead of aborting it.
    Only if the in-process attempt also fails does the exception propagate.
    ``failure_count`` tallies worker-side failures observed so far.

    **Retry audit — idempotency required.**  The recovery path *re-executes*
    the failed item: ``fn`` may run up to three times (first attempt, one
    worker retry, in-process fallback), and a worker killed mid-item may
    already have performed part of the item's side effects.  That is safe
    for every current caller — sharded evaluation and dataset builders map
    pure functions whose results are only consumed from the returned list —
    but it is exactly the wrong policy for applying gradient batches, where
    re-execution means double-applying an update.  This is why
    :class:`repro.train.sharded.ShardedExecutor` does **not** run its
    workers through this pool: training workers are stateful (parameter
    slices, per-shard optimizer state, batch streams), and its failure
    policy is the opposite — abort the epoch *without* applying the
    in-flight round, forcing resume from the last checkpoint (locked by the
    crash regression tests in ``tests/test_train_sharded.py``).  Do not
    route non-idempotent work through :meth:`map`.
    """

    def __init__(self, max_workers: int):
        if max_workers <= 0:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        self._pool = ProcessPoolExecutor(max_workers=max_workers)
        self.max_workers = max_workers
        self.failure_count = 0

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        items = list(items)
        futures = []
        for item in items:
            try:
                futures.append(self._pool.submit(fn, item))
            except BrokenProcessPool as exc:
                futures.append(exc)  # pool died mid-submission; recover below
        results: List[R] = []
        for index, (item, future) in enumerate(zip(items, futures)):
            try:
                if isinstance(future, BrokenProcessPool):
                    raise future
                results.append(future.result())
            except Exception as exc:
                results.append(self._recover(fn, item, index, exc))
        return results

    def _recover(self, fn: Callable[[T], R], item: T, index: int, exc: BaseException) -> R:
        """One worker retry, then in-process fallback, for a failed item."""
        self.failure_count += 1
        logger.warning("worker failed on item %d (%r); retrying once in a worker", index, exc)
        try:
            return self._resubmit(fn, item)
        except Exception as retry_exc:
            self.failure_count += 1
            logger.warning(
                "retry for item %d failed (%r); falling back to in-process execution",
                index,
                retry_exc,
            )
            return fn(item)

    def _resubmit(self, fn: Callable[[T], R], item: T) -> R:
        """Submit one item, replacing the pool if a crash left it broken."""
        try:
            return self._pool.submit(fn, item).result()
        except BrokenProcessPool:
            logger.warning("process pool broken; restarting %d workers", self.max_workers)
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
            return self._pool.submit(fn, item).result()

    def close(self) -> None:
        self._pool.shutdown(wait=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
