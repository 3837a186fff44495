"""SIM002 fixture: event state mutated after the event is enqueued.

Line numbers are asserted by tests/test_lintkit_rules.py."""


def schedule_bad(sim, queue, ev):
    sim.schedule(ev, 1.0)
    sim.timeout(0.5)
    queue.push(ev, 0.0)
    ev.value = 42  # -> SIM002 (after the enqueues above)
    return ev


def schedule_ok(sim, queue, ev, make_timeout):
    ev.value = 42  # ok: set before the enqueue below
    queue.push(ev, 0.0)
    sim.schedule(ev, 1.0)
    return make_timeout(0.0)
