"""Op-timer profiler: where does a training epoch's wall-clock go?

A client of :mod:`repro.analysis.instrument`, the engine's single install
point: every public op in :mod:`repro.autograd.functional`, every fused
Tensor op in :mod:`repro.kernels.dispatch`, and
:meth:`~repro.autograd.optim.Optimizer.step` is wrapped with a timing shim
while a profile is active.  Each wrapper records

- **forward** seconds — wall-clock of the op call itself, attributed only to
  *top-level* calls (a composite op like ``bpr_loss`` that invokes other
  instrumented ops absorbs their time; nothing is double-counted);
- **backward** seconds — the op's ``_backward`` closure is rewrapped on the
  output tensor, so the tape walk in
  :meth:`~repro.autograd.tensor.Tensor.backward` times each node exactly.

The result is a :class:`ProfileReport` mapping op name → (calls, forward s,
backward s), with :meth:`ProfileReport.table` rendering the per-op wall-clock
share the ``repro profile`` CLI command prints.  This is the receipts side of
the fused-kernel work: run an epoch under the ``oracle`` backend and the
gather/scatter chain dominates; run it fused and the same time collapses into
``edge_attention_scores`` / ``weighted_neighbor_sum`` at a fraction of the
wall-clock.

The profiler attaches on entry to :func:`profiled` and detaches on exit, so
an un-profiled run has no wrapper in its call path.  Profiling composes with
the sanitizer in any attach/detach order: every rebuild of the engine starts
from its pristine callables.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import time
from typing import Callable, Dict, Iterator, List, Optional

from repro.analysis import instrument
from repro.autograd.tensor import Tensor

__all__ = ["OpStat", "ProfileReport", "profiled"]


@dataclasses.dataclass
class OpStat:
    """Accumulated timings for one instrumented op."""

    name: str
    calls: int = 0
    forward_seconds: float = 0.0
    backward_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.forward_seconds + self.backward_seconds

    def as_dict(self) -> Dict[str, float]:
        return {
            "calls": self.calls,
            "forward_seconds": self.forward_seconds,
            "backward_seconds": self.backward_seconds,
            "total_seconds": self.total_seconds,
        }


class ProfileReport:
    """Per-op timing totals for one profiled block.

    ``wall_seconds`` is the wall-clock of the whole block; the per-op totals
    cover only instrumented calls, so their sum is a lower bound (Python
    control flow, sampling, and raw-NumPy glue make up the difference).
    """

    def __init__(self) -> None:
        self.stats: Dict[str, OpStat] = {}
        self.wall_seconds: float = 0.0

    def _stat(self, name: str) -> OpStat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = OpStat(name)
        return stat

    @property
    def op_seconds(self) -> float:
        """Total instrumented seconds (forward + backward over all ops)."""
        return sum(s.total_seconds for s in self.stats.values())

    def sorted_stats(self) -> List[OpStat]:
        """Stats sorted by descending total time (name-tiebroken, stable)."""
        return sorted(self.stats.values(), key=lambda s: (-s.total_seconds, s.name))

    def as_dict(self) -> Dict[str, object]:
        return {
            "wall_seconds": self.wall_seconds,
            "op_seconds": self.op_seconds,
            "ops": {s.name: s.as_dict() for s in self.sorted_stats()},
        }

    def table(self, top: Optional[int] = 15) -> str:
        """Human-readable per-op table, biggest total first.

        ``share`` is the op's fraction of all *instrumented* time — the
        number that shows where an epoch's compute actually goes.
        """
        stats = self.sorted_stats()
        if top is not None:
            stats = stats[:top]
        denom = self.op_seconds or 1.0
        width = max([len(s.name) for s in stats] + [4])
        lines = [
            f"{'op':<{width}} {'calls':>7} {'fwd s':>9} {'bwd s':>9} {'total s':>9} {'share':>6}"
        ]
        for s in stats:
            lines.append(
                f"{s.name:<{width}} {s.calls:>7d} {s.forward_seconds:>9.3f} "
                f"{s.backward_seconds:>9.3f} {s.total_seconds:>9.3f} "
                f"{100.0 * s.total_seconds / denom:>5.1f}%"
            )
        lines.append(
            f"instrumented {self.op_seconds:.3f}s of {self.wall_seconds:.3f}s wall "
            f"({100.0 * self.op_seconds / (self.wall_seconds or 1.0):.1f}% coverage)"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------- wrappers
class _Profiler:
    """The profiler's :mod:`~repro.analysis.instrument` client, filling one report.

    :meth:`~repro.autograd.optim.Optimizer.step` is timed like a top-level
    op, under the name ``optimizer.step``.
    """

    def __init__(self, report: ProfileReport) -> None:
        self.report = report

    def wrap(self, kind: str, name: str, fn: Callable) -> Callable:
        if kind == "step":
            name = "optimizer.step"
        elif kind != "op":
            return fn
        stat = self.report._stat

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if instrument.op_depth():
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            op = stat(name)
            op.calls += 1
            op.forward_seconds += dt
            if isinstance(out, Tensor) and out._backward is not None:
                inner = out._backward

                def timed_backward(grad):
                    t1 = time.perf_counter()
                    try:
                        inner(grad)
                    finally:
                        op.backward_seconds += time.perf_counter() - t1

                out._backward = timed_backward
            return out

        return wrapped


@contextlib.contextmanager
def profiled() -> Iterator[ProfileReport]:
    """Profile the enclosed block, yielding the report being filled.

    The report's totals are final once the block exits, and the profiler's
    wrappers are gone from the engine, even if the block raised.  Profiles
    do not nest (one active report at a time); a profile composes with the
    sanitizer in any enable/disable order.
    """
    if any(isinstance(c, _Profiler) for c in instrument.attached()):
        raise RuntimeError("a profile is already active; profiled() does not nest")
    report = ProfileReport()
    client = _Profiler(report)
    instrument.attach(client)
    t0 = time.perf_counter()
    try:
        yield report
    finally:
        report.wall_seconds = time.perf_counter() - t0
        instrument.detach(client)
