r"""Join-semilattice environments for the forward analyses.

An abstract *environment* maps variable names to abstract values.  Two
value lattices are supported, picked by the value's type:

* **flat** (anything hashable except frozensets)::

        ⊤  (TOP: conflicting/unknown)
      / | \
     v₁ v₂ v₃ ...   (compared by ==)
      \ | /
     absent  (unbound on every path reaching here)

* **powerset** (frozensets, used by the alias domain): join is set
  union, so ``x`` aliasing ``{a}`` on one arm and ``{b}`` on the other
  aliases ``{a, b}`` at the join — exactly the may-alias semantics the
  mutation rules need.

An absent binding joins to the other side's value: a name bound on only
one arm of a branch keeps that arm's value.  The rules only *report* on
known values, so this optimism trades a few theoretical false positives
on genuinely unbound paths for far fewer false negatives on the common
one-armed ``if``.  ⊤ absorbs everything and the domains treat it as
"don't know, stay silent".

Environments are plain dicts so the fixpoint engine can copy them with
``dict(env)`` and detect convergence with ``==``; domain values must be
hashable and compare by value (frozensets, numbers, strings).
"""

from __future__ import annotations

from typing import Hashable, Mapping


class _Top:
    """Singleton absorbing element of the flat lattice."""

    __slots__ = ()
    _instance: "_Top | None" = None

    def __new__(cls) -> "_Top":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "TOP"


#: The absorbing "conflicting/unknown" element of the flat value lattice.
TOP = _Top()

#: An abstract environment: variable name -> abstract value.
Env = dict[str, Hashable]


def join_value(a: Hashable, b: Hashable) -> Hashable:
    """Least upper bound of two abstract values."""
    if isinstance(a, frozenset) and isinstance(b, frozenset):
        return a | b
    if a is TOP or b is TOP:
        return TOP
    if a == b:
        return a
    return TOP


def join_env(a: Mapping[str, Hashable],
             b: Mapping[str, Hashable]) -> Env:
    """Pointwise join; a name absent on one side keeps the other's value."""
    out: Env = dict(a)
    for name, value in b.items():
        if name in out:
            out[name] = join_value(out[name], value)
        else:
            out[name] = value
    return out


__all__ = ["TOP", "Env", "join_value", "join_env"]
