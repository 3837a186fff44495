"""Regenerate ``reference/sweep.json``: the sweep drivers' data at the
default seed, which the sweep workload's check compares against.

Usage: ``python3 perfbench/make_reference.py`` from the checkout root.
Run it only when a change to the program is meant to change that data.
"""

from __future__ import annotations

import json
import sys

import inputs
from checks import REFERENCE
from util import DEFAULT_SEED, SRC


def main() -> int:
    sys.path.insert(0, str(SRC))
    from repro import perf
    from repro.experiments.runner import run_experiment

    data = {}
    for name in inputs.SWEEP_DRIVERS:
        perf.clear_caches()
        data[name] = run_experiment(name, rng=DEFAULT_SEED).data
    REFERENCE.mkdir(exist_ok=True)
    (REFERENCE / "sweep.json").write_text(
        json.dumps(data, sort_keys=True, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
