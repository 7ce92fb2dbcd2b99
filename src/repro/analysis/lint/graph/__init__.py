"""Interprocedural analysis for reprolint.

The lint engine (:func:`repro.analysis.lint.run_lint`) parses each file
once; from that tree this package's :func:`summarize_module` builds the
file's function summaries, and :class:`ProgramGraph` stitches every file's
summary into one analysis artifact for the whole linted tree — a
module/call graph with abstract dataflow — over which four rule families
run:

- **RPL011** determinism taint: an unseeded RNG value flowing (through
  calls, returns, and default arguments) into model/autograd/eval/serving
  entry points;
- **RPL012** dtype lattice: float64 values meeting float32 values at a call
  into the float32 fast path (the static twin of the runtime upcast
  sanitizer);
- **RPL013** async/lock discipline: blocking calls reachable from the
  serving layer's ``async def`` handlers without an executor hop, and
  lock-owning classes written without their lock from handler-reachable
  code;
- **RPL014** funnel escape: call paths from models/eval/serving into raw
  kernel backends or the ``np.save`` family that bypass the
  dispatch/store/io funnels through helpers.

Summaries are cached together with each file's lexical findings by file
content hash (see :mod:`~repro.analysis.lint.graph.cache`), so warm runs
skip parsing unchanged files entirely.  The baseline ratchet
(:mod:`~repro.analysis.lint.graph.baseline`) backs ``repro lint
--baseline``.
"""

from repro.analysis.lint.graph.baseline import (
    BASELINE_SCHEMA_VERSION,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.lint.graph.cache import SummaryCache
from repro.analysis.lint.graph.program import ProgramGraph
from repro.analysis.lint.graph.summary import SUMMARY_VERSION, summarize_module

__all__ = [
    "ProgramGraph",
    "SummaryCache",
    "SUMMARY_VERSION",
    "BASELINE_SCHEMA_VERSION",
    "summarize_module",
    "load_baseline",
    "apply_baseline",
    "write_baseline",
]
