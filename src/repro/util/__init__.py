"""Shared utilities: argument validation, units, statistics, RNG policy, tables.

These helpers are deliberately dependency-light (NumPy only) and are used by
every other subpackage.  Nothing here is specific to the paper; it is plumbing
that keeps the domain modules small and uniform.
"""

from repro import _export

_EXPORTS = {
    "ValidationError": "validation",
    "check_positive": "validation",
    "check_nonnegative": "validation",
    "check_in_range": "validation",
    "check_integer": "validation",
    "check_probability": "validation",
    "check_fraction_open": "validation",
    "check_sorted_unique": "validation",
    "Frequency": "units",
    "cycles_to_seconds": "units",
    "seconds_to_cycles": "units",
    "ns_to_cycles": "units",
    "cycles_to_ns": "units",
    "GIGA": "units",
    "MICRO": "units",
    "NANO": "units",
    "relative_error": "stats",
    "mean_relative_error": "stats",
    "r_squared": "stats",
    "geometric_mean": "stats",
    "coefficient_of_variation": "stats",
    "resolve_rng": "rng",
    "spawn_rng": "rng",
    "DEFAULT_SEED": "rng",
    "TextTable": "tables",
    "format_float": "tables",
    "format_sci": "tables",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    return _export(__name__, _EXPORTS, name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
