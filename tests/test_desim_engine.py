"""Unit tests for the DES engine: events, clock, processes."""

import pytest

from repro.desim.engine import Interrupt, SimulationError, Simulator, Timeout
from repro.desim.events import Event, EventQueue
from repro.util.validation import ValidationError


class TestEventQueue:
    def test_pop_in_time_order(self):
        q = EventQueue()
        e1, e2, e3 = Event(), Event(), Event()
        q.push(e1, 5.0)
        q.push(e2, 1.0)
        q.push(e3, 3.0)
        assert q.pop() is e2
        assert q.pop() is e3
        assert q.pop() is e1

    def test_fifo_for_simultaneous(self):
        q = EventQueue()
        events = [Event() for _ in range(5)]
        for e in events:
            q.push(e, 2.0)
        assert [q.pop() for _ in events] == events

    def test_cancelled_events_skipped(self):
        q = EventQueue()
        e1, e2 = Event(), Event()
        q.push(e1, 1.0)
        q.push(e2, 2.0)
        e1.cancel()
        assert q.pop() is e2

    def test_peek_skips_cancelled(self):
        q = EventQueue()
        e1, e2 = Event(), Event()
        q.push(e1, 1.0)
        q.push(e2, 2.0)
        e1.cancel()
        assert q.peek_time() == 2.0

    def test_peek_empty(self):
        assert EventQueue().peek_time() is None

    def test_double_schedule_rejected(self):
        q = EventQueue()
        e = Event()
        q.push(e, 1.0)
        with pytest.raises(ValidationError):
            q.push(e, 2.0)

    def test_invalid_time_rejected(self):
        q = EventQueue()
        with pytest.raises(ValidationError):
            q.push(Event(), float("inf"))

    def test_event_callbacks_fire(self):
        e = Event()
        seen = []
        e.add_callback(lambda ev: seen.append(ev.value))
        e.value = 42
        e._trigger()
        assert seen == [42]

    def test_callback_after_trigger_rejected(self):
        e = Event()
        e._trigger()
        with pytest.raises(ValidationError):
            e.add_callback(lambda ev: None)


class TestSimulatorClock:
    def test_time_advances_to_events(self):
        sim = Simulator()
        times = []

        def proc():
            yield sim.timeout(2.0)
            times.append(sim.now)
            yield sim.timeout(3.0)
            times.append(sim.now)

        sim.process(proc())
        sim.run()
        assert times == [2.0, 5.0]

    def test_run_until(self):
        sim = Simulator()

        def proc():
            while True:
                yield sim.timeout(1.0)

        sim.process(proc())
        assert sim.run(until=10.5) == 10.5
        assert sim.now == 10.5

    def test_run_until_in_past_rejected(self):
        sim = Simulator()
        sim.now = 5.0
        with pytest.raises(ValidationError):
            sim.run(until=1.0)

    def test_max_events_stops(self):
        sim = Simulator()
        count = [0]

        def proc():
            while True:
                yield sim.timeout(1.0)
                count[0] += 1

        sim.process(proc())
        sim.run(max_events=10)
        assert count[0] <= 10

    def test_empty_run_returns_now(self):
        sim = Simulator()
        assert sim.run() == 0.0


class TestProcesses:
    def test_two_processes_interleave(self):
        sim = Simulator()
        order = []

        def a():
            yield sim.timeout(1.0)
            order.append("a1")
            yield sim.timeout(2.0)
            order.append("a3")

        def b():
            yield sim.timeout(2.0)
            order.append("b2")

        sim.run_all([a(), b()])
        assert order == ["a1", "b2", "a3"]

    def test_wait_on_event_receives_value(self):
        sim = Simulator()
        got = []

        def waiter(ev):
            value = yield ev
            got.append((sim.now, value))

        ev = sim.event()
        sim.process(waiter(ev))
        sim.schedule(ev, delay=4.0, value="payload")
        sim.run()
        assert got == [(4.0, "payload")]

    def test_done_event_fires(self):
        sim = Simulator()
        finished = []

        def short():
            yield sim.timeout(1.0)

        def watcher(done):
            yield done
            finished.append(sim.now)

        proc = sim.process(short())
        sim.process(watcher(proc.done_event))
        sim.run()
        assert finished == [1.0]

    def test_interrupt_raises_in_process(self):
        sim = Simulator()
        caught = []

        def sleeper():
            try:
                yield sim.timeout(100.0)
            except Interrupt as exc:
                caught.append((sim.now, exc.cause))

        def interrupter(target):
            yield sim.timeout(3.0)
            target.interrupt(cause="wakeup")

        target = sim.process(sleeper())
        sim.process(interrupter(target))
        sim.run()
        assert caught == [(3.0, "wakeup")]

    def test_interrupt_finished_process_rejected(self):
        sim = Simulator()

        def quick():
            yield sim.timeout(0.0)

        proc = sim.process(quick())
        sim.run()
        with pytest.raises(SimulationError):
            proc.interrupt()

    def test_yield_garbage_rejected(self):
        sim = Simulator()

        def bad():
            yield "not a waitable"

        sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run()

    def test_negative_timeout_rejected(self):
        # Both scheduling entry points refuse to fire in the past.
        with pytest.raises(ValidationError):
            Timeout(-1.0)
        with pytest.raises(ValidationError):
            Simulator().schedule(Event(), -1.0)

    def test_determinism(self):
        def build():
            sim = Simulator()
            log = []

            def p(name, delay):
                for _ in range(3):
                    yield sim.timeout(delay)
                    log.append((sim.now, name))

            sim.run_all([p("x", 1.0), p("y", 1.0), p("z", 0.5)])
            return log

        assert build() == build()
