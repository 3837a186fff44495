"""Content-hash incremental lint cache (``.repro/lintcache.json``).

``repro lint --changed`` keeps whole-tree linting pre-commit fast: every
file's findings *and* its symbol summary are persisted keyed on the
SHA-256 of the file's bytes, and the whole store is additionally keyed
on two fingerprints:

* the **rules fingerprint** — rule ids, severities and path scopes —
  so upgrading the linter invalidates everything;
* the **project fingerprint** — the symbol-index hash over every file's
  summary (see :mod:`repro.lintkit.dataflow.symbols`) — so tier-2
  findings are only reused while the cross-module facts they depended on
  (signatures, imports, globals, process entries) are unchanged.  Editing
  a function *body* leaves its module summary intact: only that file
  re-lints, every other file's findings replay from the cache.

A warm run on an unchanged tree therefore does no parsing at all: it
hashes bytes and replays findings — well under a second on this tree,
which is the pre-commit budget the CI job records.

Cache corruption is never fatal: any unreadable/mismatched state is
treated as a cold cache.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

from repro.lintkit.core import Finding

__all__ = ["LintCache", "DEFAULT_CACHE_PATH", "file_digest"]

#: Default on-disk location, sibling to the run archive.
DEFAULT_CACHE_PATH = ".repro/lintcache.json"

CACHE_VERSION = 2


def file_digest(source_bytes: bytes) -> str:
    return hashlib.sha256(source_bytes).hexdigest()


class LintCache:
    """One loaded cache file; mutate via :meth:`put`, persist via
    :meth:`save`."""

    def __init__(self, path: str, rules_fingerprint: str) -> None:
        self.path = path
        self.rules_fingerprint = rules_fingerprint
        #: relpath -> {"digest", "summary", "findings", "project"}
        self.files: dict[str, dict] = {}
        self.hits = 0
        self.misses = 0

    # -- lifecycle ------------------------------------------------------------

    @classmethod
    def load(cls, path: str, rules_fingerprint: str) -> "LintCache":
        cache = cls(path, rules_fingerprint)
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            return cache
        if not isinstance(data, dict) or \
                data.get("version") != CACHE_VERSION or \
                data.get("rules_fingerprint") != rules_fingerprint:
            return cache  # cold: schema or rule set changed
        files = data.get("files")
        if isinstance(files, dict):
            cache.files = files
        return cache

    def save(self) -> None:
        payload = {
            "version": CACHE_VERSION,
            "rules_fingerprint": self.rules_fingerprint,
            "files": self.files,
        }
        directory = os.path.dirname(self.path) or "."
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True,
                          separators=(",", ":"))
            os.replace(tmp, self.path)
        except OSError:
            pass  # a cache that cannot persist is just cold next run

    # -- per-file API ---------------------------------------------------------

    def summary(self, relpath: str, digest: str) -> dict | None:
        """The cached symbol summary when the file bytes are unchanged."""
        entry = self.files.get(relpath)
        if entry is not None and entry.get("digest") == digest:
            summary = entry.get("summary")
            if isinstance(summary, dict):
                return summary
        return None

    def findings(self, relpath: str, digest: str,
                 project_fingerprint: str) -> list[Finding] | None:
        """Cached findings, valid only under the same project view."""
        entry = self.files.get(relpath)
        if entry is None or entry.get("digest") != digest or \
                entry.get("project") != project_fingerprint:
            self.misses += 1
            return None
        try:
            found = [Finding.from_dict(d) for d in entry["findings"]]
        except (KeyError, ValueError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return found

    def put(self, relpath: str, digest: str, summary: dict,
            findings: list[Finding], project_fingerprint: str) -> None:
        self.files[relpath] = {
            "digest": digest,
            "summary": summary,
            "project": project_fingerprint,
            "findings": [f.to_dict() for f in findings],
        }

    def prune(self, keep: set[str]) -> None:
        """Drop entries for files no longer scanned."""
        for relpath in list(self.files):
            if relpath not in keep:
                del self.files[relpath]
