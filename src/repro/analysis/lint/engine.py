"""The reprolint engine: one parse per file, every rule, one report.

:func:`run_lint` is the single entry point behind ``repro lint``.  One run:

1. collects the ``.py`` files under the given paths (sorted, deduplicated);
2. obtains each file's result through the content-hash
   :class:`~repro.analysis.lint.graph.cache.SummaryCache`.  On a miss,
   :func:`analyze_source` parses the file **once** and, over that one tree,
   builds the file's graph summary and walks it with every lexical rule
   (RPL001–RPL010, RPL015).  The walker maintains the lexical state rules
   rely on (enclosing function/class stacks, ``with no_grad():`` depth) and
   dispatches each node to the rules subscribed to its type.  Unchanged
   files skip parsing entirely on warm runs;
3. builds one :class:`~repro.analysis.lint.graph.program.ProgramGraph` from
   the summaries and runs the interprocedural rules (RPL011–RPL014) over it;
4. applies each file's inline-suppression map and the ``select`` filter to
   lexical and graph findings alike.

Lexical findings are cached for every rule, unfiltered by ``select``; the
cache key includes the path-policy fingerprint they were computed under.

Exit-code contract (consumed by ``make verify`` and CI):

- **0** — clean (no findings),
- **1** — findings reported,
- **2** — internal error (bad rule selection, unreadable path, engine bug).

A *syntax error in a linted file* is a finding (``RPL000``), not an internal
error: a broken file in the tree is the tree's problem, and CI should report
it like any other violation instead of crashing.  ``RPL000`` is reported
whatever the ``select``, and the graph rules still run over the other files.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Type, Union

from repro.analysis.lint.context import DEFAULT_CONFIG, LintConfig, LintContext, collect_aliases
from repro.analysis.lint.findings import PARSE_ERROR_CODE, Finding
from repro.analysis.lint.graph.cache import SummaryCache
from repro.analysis.lint.graph.program import ProgramGraph
from repro.analysis.lint.graph.rules import GRAPH_CHECKERS
from repro.analysis.lint.graph.summary import summarize_module
from repro.analysis.lint.registry import all_rules, rules_for
from repro.analysis.lint.rules.base import Rule
from repro.analysis.lint.suppressions import apply_suppressions, parse_suppressions

__all__ = [
    "LintReport",
    "analyze_source",
    "lint_source",
    "lint_file",
    "collect_files",
    "run_lint",
]

PathLike = Union[str, pathlib.Path]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_INTERNAL_ERROR = 2

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache", "build", "dist"}


@dataclasses.dataclass
class LintReport:
    """Outcome of one lint run over a set of paths."""

    findings: List[Finding]
    files_checked: int
    cache_hits: int
    cache_misses: int

    @property
    def exit_code(self) -> int:
        return EXIT_FINDINGS if self.findings else EXIT_CLEAN


class _Walker:
    """Single-pass AST walker maintaining lexical state and dispatching rules."""

    def __init__(self, ctx: LintContext, dispatch: Dict[Type[ast.AST], List[Rule]]):
        self.ctx = ctx
        self.dispatch = dispatch

    def walk(self, node: ast.AST) -> None:
        ctx = self.ctx
        if isinstance(node, ast.Call):
            ctx.call_func_ids.add(id(node.func))
        for rule in self.dispatch.get(type(node), ()):
            rule.check(node, ctx)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            ctx.function_stack.append(node)
            self._walk_children(node)
            ctx.function_stack.pop()
        elif isinstance(node, ast.ClassDef):
            ctx.class_stack.append(node)
            self._walk_children(node)
            ctx.class_stack.pop()
        elif isinstance(node, (ast.With, ast.AsyncWith)) and self._is_no_grad(node):
            ctx.nograd_depth += 1
            self._walk_children(node)
            ctx.nograd_depth -= 1
        else:
            self._walk_children(node)

    def _walk_children(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            self.walk(child)

    def _is_no_grad(self, node: ast.AST) -> bool:
        for item in node.items:
            expr = item.context_expr
            if isinstance(expr, ast.Call):
                func = expr.func
                if isinstance(func, ast.Name) and func.id == "no_grad":
                    return True
                if isinstance(func, ast.Attribute) and func.attr == "no_grad":
                    return True
        return False


def _build_dispatch(rules: Sequence[Rule]) -> Dict[Type[ast.AST], List[Rule]]:
    dispatch: Dict[Type[ast.AST], List[Rule]] = {}
    for rule in rules:
        for node_type in rule.node_types:
            dispatch.setdefault(node_type, []).append(rule)
    return dispatch


def analyze_source(source: str, path: str, config: LintConfig = DEFAULT_CONFIG) -> dict:
    """Parse one module once into its JSON-serializable lint result.

    The result is the module's graph summary plus ``lexical`` (every lexical
    rule's findings as ``[line, col, end_col, code, rule, message]`` rows,
    unfiltered by ``config.select``) and ``suppressions`` (line -> codes).
    A file that does not parse yields an ``error`` pseudo-summary whose only
    finding is ``RPL000``.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as err:
        message = f"file does not parse: {err.msg}"
        row = [err.lineno or 0, err.offset or 0, 0, PARSE_ERROR_CODE, "parse-error", message]
        return {"error": message, "lexical": [row], "suppressions": {}}
    aliases = collect_aliases(tree)
    summary = summarize_module(tree, aliases)
    ctx = LintContext(path, aliases, config)
    _Walker(ctx, _build_dispatch(all_rules())).walk(tree)
    summary["lexical"] = [
        [f.line, f.col, f.end_col, f.code, f.rule, f.message] for f in ctx.findings
    ]
    # JSON object keys must be strings; ``apply_suppressions`` recognises the
    # "*" wildcard by membership, so no sentinel identity needs to survive
    # the round-trip.
    summary["suppressions"] = {
        str(line): sorted(codes) for line, codes in parse_suppressions(source).items()
    }
    return summary


def _selected(code: str, select: Optional[FrozenSet[str]]) -> bool:
    # A file that does not parse is never "clean", whatever the selection.
    return select is None or code in select or code == PARSE_ERROR_CODE


def _report(
    findings: List[Finding], summaries: Dict[str, dict], select: Optional[FrozenSet[str]]
) -> List[Finding]:
    """Apply each file's suppression map and the selection, then sort."""
    by_path: Dict[str, List[Finding]] = {}
    for f in findings:
        if _selected(f.code, select):
            by_path.setdefault(f.path, []).append(f)
    kept: List[Finding] = []
    for path, group in by_path.items():
        raw = summaries[path]["suppressions"]
        suppressed = {int(line): frozenset(codes) for line, codes in raw.items()}
        kept.extend(apply_suppressions(group, suppressed))
    return sorted(set(kept))


def _lexical_findings(path: str, summary: dict) -> List[Finding]:
    return [
        Finding(path=path, line=line, col=col, code=code, message=message, rule=rule, end_col=end)
        for line, col, end, code, rule, message in summary["lexical"]
    ]


def lint_source(
    source: str, path: str = "<string>", config: LintConfig = DEFAULT_CONFIG
) -> List[Finding]:
    """Lexical findings for one module given as a string (``path`` drives
    the path policy).  The graph rules need the whole tree: use
    :func:`run_lint`."""
    rules_for(config.select)  # validate selection (ValueError on unknown codes)
    norm = str(path).replace("\\", "/")
    summary = analyze_source(source, norm, config)
    return _report(_lexical_findings(norm, summary), {norm: summary}, config.select)


def lint_file(path: PathLike, config: LintConfig = DEFAULT_CONFIG) -> List[Finding]:
    """Lint one file on disk (reported path is the path as given)."""
    p = pathlib.Path(path)
    return lint_source(p.read_text(encoding="utf-8"), path=p.as_posix(), config=config)


def collect_files(paths: Sequence[PathLike]) -> List[pathlib.Path]:
    """Expand files/directories into a sorted, deduplicated list of ``.py`` files.

    Raises ``FileNotFoundError`` for a nonexistent input path (surfaced by the
    CLI as an internal error, exit 2 — a typo'd path must not report "clean").
    """
    out: List[pathlib.Path] = []
    seen = set()
    for path in paths:
        p = pathlib.Path(path)
        if not p.exists():
            raise FileNotFoundError(f"no such file or directory: {p}")
        if p.is_dir():
            candidates: Tuple[pathlib.Path, ...] = tuple(sorted(p.rglob("*.py")))
        else:
            candidates = (p,)
        for c in candidates:
            if any(part in _SKIP_DIRS for part in c.parts):
                continue
            key = c.resolve()
            if key in seen:
                continue
            seen.add(key)
            out.append(c)
    return out


def run_lint(
    paths: Sequence[PathLike],
    config: Optional[LintConfig] = None,
    cache_path: Optional[PathLike] = None,
) -> LintReport:
    """Run every selected rule over every ``.py`` file under ``paths``.

    ``cache_path`` of ``None`` disables the cache (cold run); otherwise
    results for unchanged files are loaded from it and the file is refreshed
    at the end of the run.
    """
    config = config or DEFAULT_CONFIG
    rules_for(config.select)  # validate selection eagerly (ValueError → exit 2)
    files = collect_files(paths)
    policy = repr(dataclasses.replace(config, select=None))
    cache = SummaryCache(pathlib.Path(cache_path) if cache_path else None, policy)

    def analyze(source: str, path: str) -> dict:
        return analyze_source(source, path, config)

    summaries: Dict[str, dict] = {}
    findings: List[Finding] = []
    for f in files:
        path = f.as_posix()
        summaries[path] = cache.get(f, analyze)
        findings.extend(_lexical_findings(path, summaries[path]))
    cache.save()

    graph = ProgramGraph(summaries)
    for code, checker in GRAPH_CHECKERS:
        if _selected(code, config.select):
            findings.extend(checker(graph, config))
    return LintReport(
        findings=_report(findings, summaries, config.select),
        files_checked=len(files),
        cache_hits=cache.hits,
        cache_misses=cache.misses,
    )
