"""Content-addressed cache keys for solver memoization.

A cache key must identify a solver input *by value*, not by object
identity: two :class:`~repro.machine.topology.Machine` instances built
from the same preset must map to the same key, and any change to any
field — a DRAM timing, a burst SCV, an allocation width — must change
it.  The canonicaliser below walks an object graph (dataclasses, enums,
containers, plain value objects) and emits a deterministic token stream;
the SHA-256 of that stream is the fingerprint.

Floats are tokenised with :meth:`float.hex` so the key captures the
exact bit pattern — a cache hit is therefore guaranteed to correspond to
a bit-identical solver input, which is what makes cached and uncached
solves interchangeable.

Fingerprints of immutable hot objects (machines, calibrated profiles)
are memoized by object identity so the canonical walk happens once per
object, not once per solve.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib

#: Identity-memo bound: entries hold strong references (keeping ``id()``
#: values valid), so the memo is cleared wholesale when it fills up.
_MEMO_MAX = 1024

_fingerprint_memo: dict[int, tuple[object, str]] = {}


def _tokens(obj: object, out: list[str]) -> None:
    """Append the canonical token stream of ``obj`` to ``out``."""
    if obj is None or isinstance(obj, (bool, int, str)):
        out.append(repr(obj))
    elif isinstance(obj, float):
        out.append(obj.hex())
    elif isinstance(obj, enum.Enum):
        out.append(f"{type(obj).__name__}.{obj.name}")
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out.append(type(obj).__name__)
        out.append("(")
        for f in dataclasses.fields(obj):
            out.append(f.name)
            _tokens(getattr(obj, f.name), out)
        out.append(")")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for item in obj:
            _tokens(item, out)
        out.append("]")
    elif isinstance(obj, (set, frozenset)):
        out.append("{")
        for item in sorted(obj, key=repr):
            _tokens(item, out)
        out.append("}")
    elif isinstance(obj, dict):
        out.append("{")
        for k in sorted(obj, key=repr):
            _tokens(k, out)
            out.append(":")
            _tokens(obj[k], out)
        out.append("}")
    elif isinstance(obj, (bytes, bytearray)):
        out.append(bytes(obj).hex())
    elif hasattr(obj, "__cache_tokens__"):
        # Objects that name their value identity explicitly (e.g.
        # Interconnect: hop distances and link parameters).
        out.append(type(obj).__name__)
        _tokens(obj.__cache_tokens__(), out)
    elif hasattr(obj, "__dict__"):
        # Plain value objects: canonicalise their attribute dict.
        # Private/computed attributes participate too, which is
        # conservative — at worst it splits a would-be hit.
        out.append(type(obj).__name__)
        _tokens(vars(obj), out)
    else:
        raise TypeError(
            f"cannot canonicalise {type(obj).__name__!r} for cache keying")


def fingerprint(obj: object) -> str:
    """SHA-256 hex digest of the canonical token stream of ``obj``."""
    out: list[str] = []
    _tokens(obj, out)
    return hashlib.sha256("\x1f".join(out).encode("utf-8")).hexdigest()


def cached_fingerprint(obj: object) -> str:
    """Like :func:`fingerprint`, memoized by object identity.

    Safe only for effectively-immutable objects (frozen dataclasses);
    both hot callers — machines and calibrated profiles — qualify.
    """
    key = id(obj)
    hit = _fingerprint_memo.get(key)
    if hit is not None and hit[0] is obj:
        return hit[1]
    digest = fingerprint(obj)
    if len(_fingerprint_memo) >= _MEMO_MAX:
        _fingerprint_memo.clear()
    _fingerprint_memo[key] = (obj, digest)
    return digest


def flow_key(profile, machine, alloc) -> str:
    """Cache key for one ``runtime.flow.solve_flow`` input.

    Keyed on machine topology, memory profile, and core allocation
    (population + thread count); the solver is a pure function of these.
    """
    return "|".join((
        "flow",
        cached_fingerprint(machine),
        cached_fingerprint(profile),
        str(alloc.n_active),
        str(alloc.n_threads),
    ))


def clear_memo() -> None:
    """Drop the identity-memoized fingerprints (used by tests)."""
    _fingerprint_memo.clear()
