"""Seeded workload inputs.

Everything the program receives is generated here from the workload
seed, so the same seed gives the same request sequence, driver list and
sampler streams.  The generator knows the service's input space (the
three machine presets, Table I programs and classes) but nothing else
about the program.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

#: Service machine keys and their core counts.
MACHINES = {"intel_uma": 8, "intel_numa": 24, "amd_numa": 48}

#: Table I programs and their problem classes.
PROGRAMS = {
    "EP": ("S", "W", "A", "B", "C"),
    "IS": ("S", "W", "A", "B", "C"),
    "FT": ("S", "W", "A", "B", "C"),
    "CG": ("S", "W", "A", "B", "C"),
    "SP": ("S", "W", "A", "B", "C"),
    "x264": ("simsmall", "simmedium", "simlarge", "native"),
}

#: serve-warm: hot set sizes and the timed sequence length.
WARM_PREDICT = 24
WARM_RECOMMEND = 3
WARM_REQUESTS = 3000
#: Every this-many-th request of both serve workloads is a /recommend.
RECOMMEND_EVERY = 7

#: serve-cold: distinct cells per server.
COLD_REQUESTS = 400
#: Candidate core counts per cold /recommend body.
COLD_CORE_COUNTS = 3

#: sweep: the flow-based paper drivers, in full mode.
SWEEP_DRIVERS = ("table2", "fig3", "fig5", "fig6", "table4", "sp_peak",
                 "ablation_inputs", "ablation_extended")

#: burst: the Fig. 4 series, sampled as independent replicate streams
#: of a fixed window count and pooled per series.
BURST_SERIES = (("CG", "S"), ("CG", "W"), ("CG", "A"), ("CG", "B"),
                ("CG", "C"), ("x264", "simsmall"), ("x264", "simmedium"),
                ("x264", "simlarge"), ("x264", "native"))
BURST_WINDOWS = 1250
BURST_REPLICATES = 32


def _deck(rng: random.Random, items: list):
    """Endless draws that use every item once per shuffled round."""
    while True:
        deck = list(items)
        rng.shuffle(deck)
        yield from deck


def _identities(rng: random.Random):
    """Endless distinct (machine, program, size, n_threads) draws.

    Two cells that share an identity share their one-core baseline
    solve, so distinct identities keep every solve of a cold stream a
    cache miss.  Machines take turns and programs, classes and thread
    counts (2..2x the machine's cores) are dealt from shuffled decks, so
    every seed gets the same mix of cheap and expensive cells.
    """
    seen: set[tuple] = set()
    machines = sorted(MACHINES)
    pairs = _deck(rng, [(p, s) for p in sorted(PROGRAMS)
                        for s in PROGRAMS[p]])
    threads = {m: _deck(rng, list(range(2, 2 * n + 1)))
               for m, n in MACHINES.items()}
    for turn in itertools.count():
        machine = machines[turn % len(machines)]
        program, size = next(pairs)
        ident = (machine, program, size, next(threads[machine]))
        if ident not in seen:
            seen.add(ident)
            yield ident


def _body(rng: random.Random, ident: tuple, recommend: bool) -> tuple:
    """A body for one identity, with two or more active cores.

    One active core is the omega baseline every request solves anyway,
    so asking for it would be answered from the cache.
    """
    machine, program, size, n_threads = ident
    top = min(n_threads, MACHINES[machine])
    body = {"machine": machine, "program": program, "size": size,
            "n_threads": n_threads}
    if recommend:
        k = min(COLD_CORE_COUNTS, top - 1)
        body["core_counts"] = sorted(rng.sample(range(2, top + 1), k))
        return "/recommend", body
    body["n_active"] = rng.randint(2, top)
    return "/predict", body


def cold_stream(seed: int) -> list[tuple]:
    """(path, body) requests over distinct cells; mostly /predict."""
    rng = random.Random(f"serve-cold:{seed}")
    idents = _identities(rng)
    return [_body(rng, next(idents), i % RECOMMEND_EVERY == 0)
            for i in range(COLD_REQUESTS)]


def warm_set(seed: int) -> tuple[list[tuple], list[int]]:
    """The hot bodies and the timed sequence as indices into them."""
    rng = random.Random(f"serve-warm:{seed}")
    idents = _identities(rng)
    predict = [_body(rng, next(idents), False) for _ in range(WARM_PREDICT)]
    recommend = [_body(rng, next(idents), True)
                 for _ in range(WARM_RECOMMEND)]
    hot = predict + recommend
    sequence = [
        WARM_PREDICT + rng.randrange(WARM_RECOMMEND)
        if i % RECOMMEND_EVERY == 0 else rng.randrange(WARM_PREDICT)
        for i in range(WARM_REQUESTS)]
    return hot, sequence


def burst_streams(seed: int) -> list[int]:
    """Independent sampler seeds, one per replicate, derived from ``seed``."""
    state = np.random.SeedSequence(seed).generate_state(BURST_REPLICATES)
    return [int(s) for s in state]
