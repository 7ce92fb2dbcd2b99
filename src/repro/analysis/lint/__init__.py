"""reprolint — project-aware static analysis for the reproduction.

One lint pass parses each file once and runs every rule encoding this
repository's correctness invariants.  Lexical rules (per file, over the
AST): seeded randomness threading (RPL001/RPL002), no wall-clock in result
paths (RPL003), explicit dtypes on the float32 fast path (RPL004),
pickle-free persistence (RPL005), no mutable defaults (RPL006), tape-safe
``Tensor.data`` mutation (RPL007), no dense scatter-add in the gradient
engine (RPL008), persistence only through the io/store funnels (RPL009),
kernel imports only through ``dispatch`` (RPL010), and optimizers only
through the training engine (RPL015).  Interprocedural rules (over the
whole tree's call graph, :mod:`repro.analysis.lint.graph`): RNG taint
(RPL011), float64/float32 mixing (RPL012), async/lock discipline (RPL013),
and funnel escape (RPL014).  See DESIGN.md §8 and §12 for the rationale
behind each rule and README for CLI usage (``repro lint``).

Suppress a finding inline with ``# reprolint: disable=RPLxxx`` on its line.
"""

from repro.analysis.lint.context import DEFAULT_CONFIG, LintConfig
from repro.analysis.lint.engine import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_INTERNAL_ERROR,
    LintReport,
    analyze_source,
    collect_files,
    lint_file,
    lint_source,
    run_lint,
)
from repro.analysis.lint.findings import (
    SCHEMA_VERSION,
    Finding,
    render_json,
    render_text,
    summarize,
)
from repro.analysis.lint.registry import all_rules, known_codes, register
from repro.analysis.lint.rules.base import Rule

__all__ = [
    "LintConfig",
    "DEFAULT_CONFIG",
    "LintReport",
    "Finding",
    "Rule",
    "register",
    "all_rules",
    "known_codes",
    "analyze_source",
    "lint_source",
    "lint_file",
    "collect_files",
    "run_lint",
    "render_text",
    "render_json",
    "summarize",
    "SCHEMA_VERSION",
    "EXIT_CLEAN",
    "EXIT_FINDINGS",
    "EXIT_INTERNAL_ERROR",
]
