"""Baseline ratchet for lint findings (``repro lint --baseline``).

A baseline file freezes the currently-known findings so CI fails only on
*new* ones: existing debt is tolerated, growing it is not, and fixing a
finding makes its entry stale (reported informationally so the baseline can
be re-tightened).  Matching is exact on ``(path, code, line)`` — message
text may be reworded by a rule without invalidating the baseline, but moving
a finding (different line) counts as new, which is the conservative side of
the ratchet.

Format (JSON, sorted, stable)::

    {
      "schema_version": 1,
      "entries": [
        {"path": "src/...", "code": "RPL013", "line": 42, "message": "..."}
      ]
    }
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Sequence, Tuple

from repro.analysis.lint.findings import Finding

__all__ = [
    "BASELINE_SCHEMA_VERSION",
    "load_baseline",
    "apply_baseline",
    "write_baseline",
]

BASELINE_SCHEMA_VERSION = 1


def load_baseline(path) -> List[dict]:
    """Read baseline entries; raises ``ValueError`` on a malformed file
    (a corrupt ratchet must fail loudly, not silently allow everything)."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ValueError(f"baseline {path} is not valid JSON: {err}") from err
    if not isinstance(doc, dict) or doc.get("schema_version") != BASELINE_SCHEMA_VERSION:
        raise ValueError(
            f"baseline {path} has unsupported schema "
            f"(want schema_version={BASELINE_SCHEMA_VERSION})"
        )
    entries = doc.get("entries", [])
    if not isinstance(entries, list):
        raise ValueError(f"baseline {path}: 'entries' must be a list")
    for e in entries:
        if not all(k in e for k in ("path", "code", "line")):
            raise ValueError(f"baseline {path}: entry missing path/code/line: {e}")
    return entries


def apply_baseline(
    findings: Sequence[Finding], entries: Sequence[dict]
) -> Tuple[List[Finding], int, List[dict]]:
    """Split findings against the baseline.

    Returns ``(new_findings, matched_count, stale_entries)``: findings not
    in the baseline (these fail the run), how many were absorbed, and
    baseline entries that no longer match anything (candidates for removal).
    """
    keys = {(e["path"], e["code"], int(e["line"])) for e in entries}
    matched_keys = set()
    new: List[Finding] = []
    for f in findings:
        key = (f.path, f.code, f.line)
        if key in keys:
            matched_keys.add(key)
        else:
            new.append(f)
    stale = [
        e for e in entries if (e["path"], e["code"], int(e["line"])) not in matched_keys
    ]
    return new, len(findings) - len(new), stale


def write_baseline(path, findings: Sequence[Finding]) -> None:
    """Write the baseline for the given findings (sorted, deterministic)."""
    entries = [
        {"path": f.path, "code": f.code, "line": f.line, "message": f.message}
        for f in sorted(findings)
    ]
    doc = {"schema_version": BASELINE_SCHEMA_VERSION, "entries": entries}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
