"""``repro serve`` with the benchmark's layer wrappers installed.

Usage: ``python perfbench/serve_traced.py SPANS_PATH``.  Installs the
wrappers, then starts the service through the same ``repro.cli.main``
entry point as ``python -m repro serve --port 0``.  On SIGINT the
service stops and the spans are written to SPANS_PATH.
"""

from __future__ import annotations

import sys

import ledger


def main() -> int:
    spans_path = sys.argv[1]
    import repro.serve.http  # noqa: F401  (bound before the wrappers go in)
    from repro import cli

    rec = ledger.Recorder()
    ledger.install(rec, pool=True)
    try:
        return cli.main(["serve", "--port", "0"])
    finally:
        rec.write(spans_path)


if __name__ == "__main__":
    raise SystemExit(main())
