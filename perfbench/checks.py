"""Correctness checks; any mismatch fails the run.

* serve: every distinct served body is solved again in the benchmark's
  own process with ``predict_workload`` / ``recommend_workload`` and
  every field must be bit-identical (JSON floats round-trip exactly);
  repeated bodies must get byte-identical answers.
* sweep: every driver returns ``ok``; every pass of a run produces the
  same data; at the default seed the data equals ``reference/``.
* burst: every pass produces the same window counts, and the saturated
  CG.B and CG.C series are never heavy-tailed.  Agreement of the other
  verdicts with the paper's ``FIG4_HEAVY`` is reported, not gated: it
  is a finite-sample statistic that flips with the seed (README.md).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from util import DEFAULT_SEED

REFERENCE = Path(__file__).resolve().parent / "reference"

#: Fig. 4 series whose traffic saturates the controllers: the smooth,
#: cliff-shaped CCDF, so never heavy-tailed, at any seed.
SATURATED = ("CG.B", "CG.C")


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def expected_response(path: str, body: dict) -> dict:
    """What the service must answer, computed with the pure kernel."""
    from repro.core.predict import predict_workload, recommend_workload
    from repro.machine import amd_numa, intel_numa, intel_uma

    presets = {"intel_uma": intel_uma, "intel_numa": intel_numa,
               "amd_numa": amd_numa}
    key = body["machine"]
    machine = presets[key]()
    if path == "/predict":
        out = predict_workload(body["program"], body["size"], machine,
                               body["n_active"],
                               n_threads=body.get("n_threads")).to_dict()
        out["machine"] = key
        return out
    out = recommend_workload(body["program"], body["size"], machine,
                             core_counts=body.get("core_counts"),
                             n_threads=body.get("n_threads")).to_dict()
    out["best"]["machine"] = key
    for candidate in out["candidates"]:
        candidate["machine"] = key
    return out


def served_matches(served: bytes, expected: dict) -> bool:
    """Bit-identical field by field (canonical JSON of both sides)."""
    return canonical(json.loads(served)) == canonical(expected)


def check_served(requests: list[tuple], bodies: list[bytes | None]
                 ) -> list[str]:
    """Problems with the answers to ``requests`` (``(path, body)`` pairs).

    Requests that got no 2xx answer are failures, counted elsewhere;
    here only answers that arrived are judged.
    """
    problems = []
    first: dict[str, bytes] = {}
    for (path, body), served in zip(requests, bodies):
        if served is None:
            continue
        key = path + canonical(body)
        if key not in first:
            first[key] = served
            if not served_matches(served, expected_response(path, body)):
                problems.append(f"{path} {body}: served answer differs "
                                "from the kernel's")
        elif served != first[key]:
            problems.append(f"{path} {body}: answers differ between repeats")
    return problems


def sweep_reference() -> dict[str, str]:
    """Data digest per driver at :data:`util.DEFAULT_SEED`."""
    data = json.loads((REFERENCE / "sweep.json").read_text())
    return {name: hashlib.sha256(canonical(value).encode()).hexdigest()
            for name, value in data.items()}


def check_repeats(passes: list[list[dict]]) -> list[str]:
    """Every pass of a run must produce the same digests."""
    problems = []
    first = {op["name"]: op.get("digest") for op in passes[0]}
    for ops in passes[1:]:
        for op in ops:
            if op.get("digest") != first.get(op["name"]):
                problems.append(f"{op['name']}: output differs between "
                                "passes with the same seed")
    return problems


def check_sweep(seed: int, passes: list[list[dict]]) -> list[str]:
    problems = [f"{op['name']}: driver failed ({op.get('error', 'ok=False')})"
                for ops in passes for op in ops if not op["ok"]]
    problems += check_repeats(passes)
    if seed == DEFAULT_SEED:
        reference = sweep_reference()
        for op in passes[0]:
            if op.get("digest") != reference.get(op["name"]):
                problems.append(f"{op['name']}: data differs from "
                                "reference/sweep.json")
    return problems


def check_burst(passes: list[list[dict]]) -> list[str]:
    problems = check_repeats(passes)
    problems += [f"{op['name']}: saturated series judged heavy-tailed"
                 for op in passes[0] if op["name"] in SATURATED
                 and op["heavy"]]
    return problems


def paper_agreement(ops: list[dict]) -> list[str]:
    """Series whose heavy-tail verdict differs from the paper's."""
    from repro.experiments.paper_data import FIG4_HEAVY

    return [op["name"] for op in ops
            if op["heavy"] != FIG4_HEAVY[tuple(op["name"].split("."))]]
