"""Server process of the benchmark's serving phase.

Loads a frozen ``ScoreIndex`` by digest from an artifact store, serves it
through ``RecommendServer`` on an ephemeral port, prints ``READY <port>``,
and serves until its standard input closes.  It then stops the server and
prints one JSON line: its peak RSS and, with ``--trace 1``, the service-call
timings.  With ``--trace 1`` the service is :class:`TimedService`, whose
timers sit around the calls the server makes on the service instance.

    python3 perfbench/server.py --store DIR --digest HEX --trace 0
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.serving import RecommendServer, RecommendService, ScoreIndex  # noqa: E402
from repro.store import ArtifactStore  # noqa: E402
from run import peak_rss_mb  # noqa: E402


class TimedService(RecommendService):
    """``RecommendService`` recording the wall time of each scoring call."""

    def __init__(self, index):
        super().__init__(index)
        self.recommend_many_s = []
        self.foldin_s = []

    def recommend_many(self, requests):
        t0 = time.perf_counter()
        try:
            return super().recommend_many(requests)
        finally:
            self.recommend_many_s.append(time.perf_counter() - t0)

    def fold_in(self, item_ids):
        t0 = time.perf_counter()
        try:
            return super().fold_in(item_ids)
        finally:
            self.foldin_s.append(time.perf_counter() - t0)

    def stats(self) -> dict:
        out = super().stats()
        out["timing"] = {
            "recommend_many_s": list(self.recommend_many_s),
            "foldin_s": list(self.foldin_s),
        }
        return out


async def serve(index, trace: bool) -> None:
    service = TimedService(index) if trace else RecommendService(index)
    server = RecommendServer(service, port=0, max_batch=64)
    _, port = await server.start()
    print(f"READY {port}", flush=True)
    try:
        await asyncio.get_running_loop().run_in_executor(None, sys.stdin.buffer.read)
    finally:
        await server.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--digest", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    index = ScoreIndex.by_digest(ArtifactStore(args.store), args.digest)
    if index is None:
        print(f"no score index with digest {args.digest}", file=sys.stderr)
        return 1
    asyncio.run(serve(index, bool(args.trace)))
    print(json.dumps({"peak_rss_mb": peak_rss_mb()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
