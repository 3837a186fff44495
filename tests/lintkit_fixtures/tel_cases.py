"""TEL fixture: literal metric names and spans outside ``with``."""

from repro.obs import names


def instrument(tel, tracer, cache_name):
    tel.metrics.counter("qnet.mva.exact.calls").inc()  # -> TEL001
    tel.metrics.timer(f"perf.cache.{cache_name}.s")  # -> TEL001 (f-string)
    tel.metrics.counter(names.QNET_MMC_ERLANG_C_CALLS).inc()  # ok: catalogue constant
    leak = tracer.span("solve")  # -> TEL002
    with tracer.span(names.QNET_MMC_ERLANG_C_CALLS):  # ok: span under with
        pass
    return leak


def hushed(tel):
    tel.metrics.counter("adhoc.probe").inc()  # reprolint: disable=TEL001
