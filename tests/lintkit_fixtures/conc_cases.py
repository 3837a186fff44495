"""CONC002-003 fixtures; `# -> RULEID` marks expected findings."""
import random
from concurrent.futures import ProcessPoolExecutor

REGISTRY = {}
LIMITS = (1, 2)


def submit_lambda(pool):
    pool.submit(lambda: 1)  # -> CONC002


def submit_nested(pool):
    def inner():
        return 2
    pool.submit(inner)  # -> CONC002


def submit_registry(pool, task):
    pool.submit(task, REGISTRY)  # -> CONC002


def submit_tuple_is_fine(pool, task):
    pool.submit(task, LIMITS)


def pool_worker(n):
    return random.random() + n  # -> CONC003


def seeded_worker(n):
    rng = random.Random(n)
    return rng.random()


def launch():
    with ProcessPoolExecutor() as pool:
        pool.submit(pool_worker, 1)
        pool.submit(seeded_worker, 2)
