"""Content-addressed cache of per-file lint results.

A lint run's cost is dominated by parsing every file, summarizing it for the
graph rules and walking it with the lexical rules; the analysis over the
finished summaries is cheap.  The cache stores one JSON document mapping
each file path to ``{key, summary}``, where the summary holds both the graph
summary and the file's lexical findings, so a warm run only hashes file
contents (no parsing) for unchanged files.

Invalidation is by value, not by mtime: the key hashes the file's bytes
together with the path-policy fingerprint the lexical findings were computed
under.  A touched-but-identical file still hits; a changed file, or a run
under a different path policy, misses.  Entries written by a different
:data:`~repro.analysis.lint.graph.summary.SUMMARY_VERSION` are discarded
wholesale on load, so shape changes can never be misread.  Entries are
evicted only once their file no longer exists, so linting a subdirectory
leaves the rest of the tree warm.  Writes are atomic (tmp file +
``os.replace``) — a crashed run leaves the previous cache intact, and the
worst possible failure mode of a corrupt or missing cache file is a cold
run.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Callable, Dict, Optional

from repro.analysis.lint.graph.summary import SUMMARY_VERSION

__all__ = ["SummaryCache", "content_hash"]


def content_hash(data: bytes) -> str:
    """SHA-256 hex digest of raw bytes — the cache invalidation key."""
    return hashlib.sha256(data).hexdigest()


class SummaryCache:
    """Load-once / save-once cache of per-file results keyed by content.

    Usage::

        cache = SummaryCache(Path(".reprolint-cache.json"), policy)
        summary = cache.get(path, analyze)   # analyze(source, path) on miss
        ...
        cache.save()                         # persist for the next run

    ``policy`` is the path-policy fingerprint hashed into every key.  A
    ``path`` of ``None`` disables persistence entirely (every call is a
    miss and ``save()`` is a no-op) — used for cold runs.
    """

    def __init__(self, path: Optional[Path], policy: str):
        self.path = Path(path) if path is not None else None
        self.policy = policy.encode("utf-8")
        self._entries: Dict[str, dict] = {}
        self._dirty = False
        self.hits = 0
        self.misses = 0
        self._load()

    def _load(self) -> None:
        if self.path is None or not self.path.exists():
            return
        try:
            doc = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return  # corrupt cache == cold run
        if not isinstance(doc, dict) or doc.get("version") != SUMMARY_VERSION:
            return
        entries = doc.get("entries")
        if isinstance(entries, dict):
            self._entries = entries

    # ------------------------------------------------------------------ api
    def get(self, file_path: Path, analyze: Callable[[str, str], dict]) -> dict:
        """Return the cached result for one file, calling
        ``analyze(source, posix_path)`` only when its content or the path
        policy changed."""
        norm = Path(file_path).as_posix()
        data = Path(file_path).read_bytes()
        key = content_hash(self.policy + b"\0" + data)
        entry = self._entries.get(norm)
        if entry is not None and entry.get("key") == key:
            self.hits += 1
            return entry["summary"]
        self.misses += 1
        summary = analyze(data.decode("utf-8", errors="replace"), norm)
        self._entries[norm] = {"key": key, "summary": summary}
        self._dirty = True
        return summary

    def save(self) -> None:
        """Evict entries whose file is gone and persist the rest."""
        if self.path is None:
            return
        gone = [p for p in self._entries if not Path(p).exists()]
        for p in gone:
            del self._entries[p]
        if not (self._dirty or gone):
            return
        doc = {"version": SUMMARY_VERSION, "entries": self._entries}
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(
            json.dumps(doc, separators=(",", ":"), sort_keys=True), encoding="utf-8"
        )
        os.replace(tmp, self.path)
        self._dirty = False
