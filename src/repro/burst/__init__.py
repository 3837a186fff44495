"""Burstiness analysis of off-chip memory traffic (paper Section III-B).

Tools for the paper's Fig. 4 and the burstiness observations behind the
model: the empirical complementary CDF ``P(burst size > x)`` of windowed
miss counts, a log-log tail-linearity test (the paper's criterion: beyond
50 cache lines, heavy-tailed traffic falls on a straight line in log-log
space), and classical burstiness indices.
"""

from repro import _export

_EXPORTS = {
    "CCDF": "ccdf",
    "empirical_ccdf": "ccdf",
    "ccdf_at": "ccdf",
    "TailFit": "tail",
    "fit_loglog_tail": "tail",
    "is_heavy_tailed": "tail",
    "index_of_dispersion": "metrics",
    "peak_to_mean_ratio": "metrics",
    "burstiness_score": "metrics",
    "HurstEstimate": "selfsimilar",
    "aggregate_series": "selfsimilar",
    "estimate_hurst": "selfsimilar",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    return _export(__name__, _EXPORTS, name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})
