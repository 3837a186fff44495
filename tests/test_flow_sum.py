"""The flow solver's bits must not depend on the interpreter's ``sum()``.

Since Python 3.12, ``sum()`` adds floats with Neumaier compensation; on
3.10 and 3.11 it adds them left to right.  The solver sums left to right
explicitly, so both entries must reproduce ``tests/data/flow_golden.json``
with 3.12's ``sum()`` patched in, on any interpreter.  ``sum312`` is a
transcription of CPython 3.12's ``builtin_sum_impl`` for ints and floats.
"""

from __future__ import annotations

import builtins
import json
import math

import pytest

from repro import perf
from repro.machine import CoreAllocation, amd_numa
from test_flow_golden import CASES, GOLDEN, run_case


def sum312(iterable, /, start=0):
    """``sum()`` as CPython 3.12 computes it: compensated over floats."""
    it = iter(iterable)
    result = start
    if type(result) is int:
        for item in it:
            if type(item) in (int, bool):
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total, comp = result, 0.0
        for item in it:
            if type(item) is float:
                t = total + item
                if abs(total) >= abs(item):
                    comp += (total - t) + item
                else:
                    comp += (item - t) + total
                total = t
            elif isinstance(item, int):
                total += float(item)
            else:
                result = total + item
                break
        else:
            if comp and math.isfinite(comp):
                total += comp
            return total
    for item in it:
        result = result + item
    return result


#: ``local_fraction`` of ``paper_policy(amd_numa(), n)`` for n = 1..48,
#: summed left to right.  3.12's ``sum()`` differs at n = 39-42 and 45.
LOCAL_FRACTION_AMD = [
    *["0x1.0000000000000p+0"] * 12,
    "0x1.b74a398fe7c38p-1", "0x1.829cbc14e5e0ap-1", "0x1.5c28f5c28f5c4p-1",
    "0x1.4000000000000p-1", "0x1.2b67a3e01c58ap-1", "0x1.1c71c71c71c72p-1",
    "0x1.11ba81104f6c8p-1", "0x1.0a3d70a3d70a4p-1", "0x1.05397829cbc14p-1",
    "0x1.021d9ead7cd38p-1", "0x1.007be2f6ce27bp-1", "0x1.0000000000000p-1",
    "0x1.d97f62b6ae7d5p-2", "0x1.ba51cc7f3e1b5p-2", "0x1.a12f684bda12fp-2",
    "0x1.8d0fac687d634p-2", "0x1.7d1bb34a93f03p-2", "0x1.70a3d70a3d70cp-2",
    "0x1.6717b56939461p-2", "0x1.6000000000000p-2", "0x1.5af9a723f7898p-2",
    "0x1.57b20c66c11b8p-2", "0x1.55e3ff2a01410p-2", "0x1.5555555555555p-2",
    "0x1.43e1551581373p-2", "0x1.352f8330ee457p-2", "0x1.28e63f9f0da21p-2",
    "0x1.1eb851eb851ecp-2", "0x1.1662fd1b428cfp-2", "0x1.0fac687d6343fp-2",
    "0x1.0a624d41c3e95p-2", "0x1.0658dc08767abp-2", "0x1.0369d0369d036p-2",
    "0x1.0173a8e46a771p-2", "0x1.005900cfac8f3p-2", "0x1.0000000000000p-2",
]


@pytest.fixture
def compensated_sum(monkeypatch):
    """3.12's ``sum()`` for the test's duration, from cold caches."""
    monkeypatch.setattr(builtins, "sum", sum312)
    perf.clear_caches()
    yield
    perf.clear_caches()


def test_transcription_compensates():
    assert sum312([0.1] * 10) == 1.0
    assert math.fsum([0.1] * 10) == 1.0
    left_to_right = 0.0
    for x in [0.1] * 10:
        left_to_right += x
    assert left_to_right != 1.0
    assert sum312(range(10)) == 45 and sum312([], 2.5) == 2.5


@pytest.mark.parametrize("entry", ["solve_flow", "solve_flow_cells"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_under_compensated_sum(compensated_sum, name, entry):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert run_case(name, entry) == golden[name]


def test_local_fraction_under_compensated_sum(compensated_sum):
    machine = amd_numa()
    got = [CoreAllocation.paper_policy(machine, n).local_fraction().hex()
           for n in range(1, machine.n_cores + 1)]
    assert got == LOCAL_FRACTION_AMD
