"""sweep and burst: one fresh worker process per pass."""

from __future__ import annotations

import json
import threading
import time

import ledger
from util import HERE, BenchError, log_tail, reap, spawn

#: A full pass may take this long before the worker is killed.
PASS_TIMEOUT_S = 150.0


def batch_pass(workload: str, seed: int, work, tag: str, traced: bool,
               setup_only: bool = False) -> dict:
    log = work / f"{workload}-{tag}.log"
    spans_path = work / f"spans-{tag}.json"
    args = [str(HERE / "worker.py"), workload, str(seed)]
    if setup_only:
        args.append("--setup-only")
    if traced:
        args += ["--spans", str(spans_path)]
    t_spawn = time.perf_counter()
    proc = spawn(args, log)
    killer = threading.Timer(PASS_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t_spawn
        done = b"" if setup_only else proc.stdout.readline()
    except BaseException:
        proc.kill()
        raise
    finally:
        killer.cancel()
        code, rss_mb = reap(proc)
    if code != 0 or not ready:
        raise BenchError(f"{workload} worker exited with {code}:\n"
                         + log_tail(log))
    if setup_only:
        return {"setup_s": setup_s}
    result = json.loads(done)
    ops = result["ops"]
    out = {
        "setup_s": setup_s, "rss_mb": rss_mb, "ops": ops,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if not op["ok"]),
        "wall_s": result["wall_s"],
        "ok": sum(1 for op in ops if op["ok"]),
        "latencies_s": [op["s"] for op in ops],
        "counters": result["counters"],
    }
    if traced:
        with open(spans_path, encoding="utf-8") as fh:
            out["layers"] = ledger.layer_totals(json.load(fh)["spans"])
    return out
