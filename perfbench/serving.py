"""serve-warm and serve-cold: one fresh ``repro serve`` process per pass."""

from __future__ import annotations

import json
import re
import select
import time

import checks
import inputs
import ledger
from client import Connection, closed_loop, encode
from util import HERE, BenchError, log_tail, reap, spawn

#: Counters read from /metrics before and after the timed phase.
COUNTERS = ("perf.cache.flow.hits", "perf.cache.flow.misses",
            "perf.cache.flow.evictions", "perf.cache.mva.hits",
            "perf.cache.mva.misses", "runtime.flow.solves",
            "perf.batch.cells", "perf.batch.fallbacks",
            "resilience.retries", "resilience.degradations")

_LISTENING = re.compile(rb"listening on http://[0-9.]+:(\d+)")


class Server:
    """A ``repro serve --port 0`` process (or the traced launcher)."""

    def __init__(self, work, tag: str, traced: bool) -> None:
        self.log = work / f"serve-{tag}.log"
        self.spans_path = work / f"spans-{tag}.json" if traced else None
        args = [str(HERE / "serve_traced.py"), str(self.spans_path)] \
            if traced else ["-m", "repro", "serve", "--port", "0"]
        self.t_spawn = time.perf_counter()
        self.proc = spawn(args, self.log)
        self.port = self._await_port(timeout=120.0)

    def _await_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 1.0)
            if not ready:
                continue
            line = self.proc.stdout.readline()
            if not line:
                break
            match = _LISTENING.search(line)
            if match:
                return int(match.group(1))
        self.stop()
        raise BenchError("repro serve did not start:\n" + log_tail(self.log))

    def stop(self) -> tuple[int, float]:
        return reap(self.proc, interrupt=True)


def _counters(conn: Connection) -> dict[str, float]:
    status, payload = conn.get_json("/metrics")
    if status != 200:
        raise BenchError(f"/metrics answered {status}")
    instruments = payload["instruments"]
    return {name: instruments.get(name, {}).get("value", 0.0)
            for name in COUNTERS}


def serve_pass(workload: str, seed: int, work, tag: str, traced: bool,
               connections: int, setup_only: bool = False) -> dict:
    """Start a server, set it up, drive the timed sequence, stop it."""
    server = Server(work, tag, traced)
    try:
        conn = Connection(server.port)
        if workload == "serve-warm":
            hot, sequence = inputs.warm_set(seed)
            for j, (path, body) in enumerate(hot):
                status, _ = conn.request(
                    encode("POST", path, body, f"s{tag}-{j}"))
                if status != 200:
                    raise BenchError(f"hot {path} {body} answered {status}")
            requests = [hot[k] for k in sequence]
        else:
            status, _ = conn.get_json("/healthz")
            if status != 200:
                raise BenchError(f"/healthz answered {status}")
            requests = inputs.cold_stream(seed)
        setup_s = time.perf_counter() - server.t_spawn
        if setup_only:
            conn.close()
            return {"setup_s": setup_s}
        raw = [encode("POST", path, body, f"t{tag}-{i}")
               for i, (path, body) in enumerate(requests)]
        before = _counters(conn)
        outcome = closed_loop(server.port, raw, connections)
        after = _counters(conn)
        conn.close()
    finally:
        code, rss_mb = server.stop()
    if code != 0:
        raise BenchError(f"repro serve exited with {code}:\n"
                         + log_tail(server.log))
    result = {
        "setup_s": setup_s, "rss_mb": rss_mb,
        "attempted": len(raw), "failed": outcome.failed,
        "wall_s": outcome.elapsed_s, "ok": outcome.ok,
        "latencies_s": [lat for lat, st in zip(outcome.latency_s,
                                               outcome.status) if st],
        "counters": {k: after[k] - before[k] for k in COUNTERS},
        "problems": checks.check_served(requests, [
            body if 200 <= st < 300 else None
            for body, st in zip(outcome.body, outcome.status)]),
    }
    if traced:
        with open(server.spans_path, encoding="utf-8") as fh:
            spans = json.load(fh)["spans"]
        prefix = f"t{tag}-"
        rids = ledger.root_requests(spans)
        keep = [str(r).startswith(prefix) for r in rids]
        result["layers"] = ledger.layer_totals(spans, keep)
        req = ledger.request_ledger(spans, prefix)
        transport = 0.0
        for i, (lat, st) in enumerate(zip(outcome.latency_s,
                                          outcome.status)):
            server_s = req["per_request"].get(f"{prefix}{i}")
            if st and server_s is not None:
                transport += lat - server_s
        result["requests"] = req
        result["transport_s"] = transport
    return result
