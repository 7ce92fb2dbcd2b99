"""Serving half of a run: a frozen ``ScoreIndex`` behind HTTP, 2 connections.

The server runs in its own process (``server.py``) for the whole run.  This
process drives it with the seeded traffic of :mod:`workloads`: an
unmeasured warm-up (one read of every user, then Zipf traffic), then one
serving round after every training epoch, so serving samples are spread
over the run like epoch and eval samples.  Each round has two phases:

- **closed loop**: each connection sends its next operation as soon as the
  previous one completes, for a quarter of the round; gives ``serve_rps``;
- **open loop**: operations arrive as a Poisson process at a fixed offered
  rate for the rest of the round; each request is timed from when it was
  due, so a stall delays every later request.  Gives the latency
  percentiles.

Every response is checked: status 200, at most K items, none of the user's
training positives (or the fold-in's observed items).  Every tenth operation
is captured and later compared with ``recommend_one`` on a fresh in-process
``RecommendService`` over the same index.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import os
import pathlib
import select
import subprocess
import sys
import time
from typing import Iterable, List, Optional

import numpy as np

from repro.serving import RecommendService, ServingClient
from repro.store import ArtifactStore

from workloads import CLOSED_SHARE, CONNECTIONS, K, OPEN_RATE, Op, Traffic

HERE = pathlib.Path(__file__).resolve().parent
SAMPLE_EVERY = 10
STARTUP_TIMEOUT_S = 60.0
SHUTDOWN_TIMEOUT_S = 30.0


class Tally:
    """Latency samples and failure counts of one phase, pooled over rounds."""

    def __init__(self):
        self.recommend: List[float] = []
        self.foldin: List[float] = []
        self.requests = 0
        self.failed = 0
        self.lag: List[float] = []
        self.wall = 0.0


class LoadGenerator:
    """Sends operations, checks every response, and captures a sample."""

    def __init__(self, index):
        self.index = index
        self.captured = []  # (op, handle, response body)
        self._ops_done = 0
        self.errors: List[str] = []

    def _ok(self, status: int, body: dict, seen) -> bool:
        if status != 200:
            self.errors.append(f"status {status}: {body}")
            return False
        items = body.get("items")
        if not isinstance(items, list) or len(items) > K:
            self.errors.append(f"bad item list: {items!r}")
            return False
        if set(items) & set(int(i) for i in seen):
            self.errors.append("response contains an excluded item")
            return False
        return True

    async def run_op(self, client: ServingClient, op: Op, tally: Tally, due: float) -> None:
        """One operation; latencies are measured from ``due``."""
        capture = self._ops_done % SAMPLE_EVERY == 0
        self._ops_done += 1
        clock = time.perf_counter
        try:
            if op.user is not None:
                status, body = await client.recommend(user=op.user, k=K)
                tally.requests += 1
                ok = self._ok(status, body, self.index.seen_items(op.user))
                tally.recommend.append(clock() - due if ok else float("inf"))
                tally.failed += not ok
                if ok and capture:
                    self.captured.append((op, None, body))
                return
            status, body = await client.fold_in(op.items)
            tally.requests += 1
            ok = status == 200 and body.get("observed") == len(op.items)
            if not ok:
                self.errors.append(f"fold-in failed: {status} {body}")
            written = clock()
            tally.foldin.append(written - due if ok else float("inf"))
            if not ok:
                tally.failed += 1
                return
            handle = body["handle"]
            status, body = await client.recommend(handle=handle, k=K)
            tally.requests += 1
            ok = self._ok(status, body, op.items)
            tally.recommend.append(clock() - written if ok else float("inf"))
            tally.failed += not ok
            if ok and capture:
                self.captured.append((op, handle, body))
        except (ConnectionError, EOFError, OSError, ValueError) as exc:
            self.errors.append(f"{type(exc).__name__}: {exc}")
            tally.requests += 1
            tally.failed += 1
            tally.recommend.append(float("inf"))

    async def closed_loop(self, clients, ops: Iterable[Op], seconds: Optional[float],
                          tally: Tally) -> None:
        """Run ``ops`` (or until ``seconds`` pass) back to back on each connection."""
        queue = iter(ops)
        start = time.perf_counter()
        end = None if seconds is None else start + seconds

        async def worker(client):
            for op in queue:
                await self.run_op(client, op, tally, time.perf_counter())
                if end is not None and time.perf_counter() >= end:
                    return

        await asyncio.gather(*(worker(c) for c in clients))
        tally.wall += time.perf_counter() - start

    async def open_loop(self, clients, ops: List[Op], offsets, tally: Tally) -> None:
        """Operation ``i`` is due at ``start + offsets[i]``, whatever came before."""
        start = time.perf_counter() + 0.01
        state = {"next": 0}

        async def worker(client):
            while state["next"] < len(ops):
                i = state["next"]
                state["next"] += 1
                due = start + offsets[i]
                wait = due - time.perf_counter()
                if wait > 0:
                    await asyncio.sleep(wait)
                    tally.lag.append(max(time.perf_counter() - due, 0.0))
                await self.run_op(client, ops[i], tally, due)

        await asyncio.gather(*(worker(c) for c in clients))

    def mismatches(self) -> int:
        """Captured responses that differ from a fresh in-process service."""
        fresh = RecommendService(self.index)
        bad = 0
        for op, handle, body in self.captured:
            if handle is None:
                expect = fresh.recommend_one({"user": op.user, "k": K})
            else:
                if fresh.fold_in(op.items) != handle:
                    bad += 1
                    continue
                expect = fresh.recommend_one({"handle": handle, "k": K})
            bad += (body["items"], body["scores"]) != (expect["items"], expect["scores"])
        return bad


class Serving:
    """A server process and the load sent to it, alive across serving rounds.

    Use as a context manager; :attr:`results` holds the pooled tallies,
    ``/stats`` before and after the measured rounds, the server's peak RSS
    and the check outcomes once the ``with`` block exits cleanly.
    """

    def __init__(self, index, traffic: Traffic, work_dir: pathlib.Path, trace: bool):
        self.load = LoadGenerator(index)
        self.warmup, self.closed, self.open = Tally(), Tally(), Tally()
        self.results: Optional[dict] = None
        self._closed_ops = traffic.stream("closed")
        self._open_ops = traffic.stream("open")
        self._gaps = traffic.arrival_gaps()
        store = ArtifactStore(work_dir / "store")
        digest = index.save(store, {"benchmark": "perfbench", "pid": os.getpid()}).digest
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "server.py"), "--store", str(store.root),
             "--digest", digest, "--trace", str(int(trace))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=dict(os.environ, PYTHONUNBUFFERED="1"),
        )
        self._loop = asyncio.new_event_loop()
        self._clients: List[ServingClient] = []
        self._warmup_ops = traffic.warmup()

    def __enter__(self) -> "Serving":
        try:
            line = _read_line(self._proc, STARTUP_TIMEOUT_S)
            if not line.startswith("READY "):
                raise RuntimeError(f"server did not start: {line!r}")
            port = int(line.split()[1])
            for _ in range(CONNECTIONS):
                client = ServingClient("127.0.0.1", port)
                self._clients.append(client)
                self._run(client.connect())
            self._run(self.load.closed_loop(self._clients, self._warmup_ops, None, self.warmup))
            self._stats_before = self._run(self._clients[0].get("/stats"))[1]
        except BaseException:
            with contextlib.suppress(OSError, ValueError):
                self._shutdown()
            raise
        return self

    def _run(self, coro):
        return self._loop.run_until_complete(coro)

    def round(self, seconds: float) -> None:
        """One serving round: closed loop, then open loop."""
        closed_seconds = seconds * CLOSED_SHARE
        self._run(
            self.load.closed_loop(self._clients, self._closed_ops, closed_seconds, self.closed)
        )
        count = int((seconds - closed_seconds) * OPEN_RATE)
        ops = list(itertools.islice(self._open_ops, count))
        offsets = np.cumsum(list(itertools.islice(self._gaps, count)))
        self._run(self.load.open_loop(self._clients, ops, offsets, self.open))

    def _shutdown(self) -> Optional[dict]:
        """Close connections and stop the server; its final record, if any."""
        final = None
        try:
            for client in self._clients:
                self._run(client.close())
            self._loop.close()
            self._proc.stdin.close()
            final = json.loads(_read_line(self._proc, SHUTDOWN_TIMEOUT_S))
            self._proc.wait(timeout=SHUTDOWN_TIMEOUT_S)
        finally:
            if self._proc.poll() is None:
                self._proc.kill()
                self._proc.wait()
        return final

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            # Keep the original error; a failed cleanup must not mask it.
            with contextlib.suppress(OSError, ValueError):
                self._shutdown()
            return False
        after = self._run(self._clients[0].get("/stats"))[1]
        final = self._shutdown()
        self.results = {
            "warmup": self.warmup,
            "closed": self.closed,
            "open": self.open,
            "stats_before": self._stats_before,
            "stats_after": after,
            "server_rss_mb": final["peak_rss_mb"],
            "mismatches": self.load.mismatches(),
            "captured": len(self.load.captured),
            "errors": self.load.errors[:10],
        }
        return False


def _read_line(proc: subprocess.Popen, timeout: float) -> str:
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    if not ready:
        raise TimeoutError(f"server printed nothing within {timeout:.0f} s")
    return proc.stdout.readline().decode()


def percentile_ms(samples: List[float], q: float) -> float:
    """Nearest-rank percentile in ms; failed requests are +inf, i.e. too slow."""
    return float(np.percentile(np.asarray(samples), q, method="inverted_cdf")) * 1e3
