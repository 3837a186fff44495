"""Shared utilities: argument validation, units, statistics, RNG policy, tables.

These helpers are deliberately dependency-light (NumPy only) and are used by
every other subpackage.  Nothing here is specific to the paper; it is plumbing
that keeps the domain modules small and uniform.
"""

from repro.util.rng import DEFAULT_SEED, resolve_rng, spawn_rng
from repro.util.stats import (
    coefficient_of_variation,
    geometric_mean,
    mean_relative_error,
    r_squared,
    relative_error,
)
from repro.util.tables import TextTable, format_float, format_sci
from repro.util.units import (
    GIGA,
    MICRO,
    NANO,
    Frequency,
    cycles_to_ns,
    cycles_to_seconds,
    ns_to_cycles,
    seconds_to_cycles,
)
from repro.util.validation import (
    ValidationError,
    check_fraction_open,
    check_in_range,
    check_integer,
    check_nonnegative,
    check_positive,
    check_probability,
    check_sorted_unique,
)

__all__ = [
    "ValidationError",
    "check_positive",
    "check_nonnegative",
    "check_in_range",
    "check_integer",
    "check_probability",
    "check_fraction_open",
    "check_sorted_unique",
    "Frequency",
    "cycles_to_seconds",
    "seconds_to_cycles",
    "ns_to_cycles",
    "cycles_to_ns",
    "GIGA",
    "MICRO",
    "NANO",
    "relative_error",
    "mean_relative_error",
    "r_squared",
    "geometric_mean",
    "coefficient_of_variation",
    "resolve_rng",
    "spawn_rng",
    "DEFAULT_SEED",
    "TextTable",
    "format_float",
    "format_sci",
]
