"""Server queueing tests: DES against M/M/1 and M/M/c theory."""

import pytest

from repro.desim.engine import Simulator
from repro.desim.resources import QueueStats, Server
from repro.qnet.mmc import MMc
from repro.util.validation import ValidationError


def _drive_poisson(sim, server, rng, lam, mu, n_jobs):
    def gen():
        for _ in range(n_jobs):
            yield sim.timeout(rng.exponential(1.0 / lam))
            server.request(rng.exponential(1.0 / mu))

    sim.process(gen())
    sim.run()


class TestServerBasics:
    def test_immediate_service_when_idle(self):
        sim = Simulator()
        srv = Server(sim)
        done = srv.request(5.0)
        sim.run()
        assert done.triggered
        assert done.value == 5.0  # response = pure service

    def test_fifo_order(self):
        sim = Simulator()
        srv = Server(sim)
        finished = []
        for tag, svc in (("a", 2.0), ("b", 1.0), ("c", 1.0)):
            ev = srv.request(svc)
            ev.add_callback(lambda e, t=tag: finished.append((sim.now, t)))
        sim.run()
        assert [t for _, t in finished] == ["a", "b", "c"]
        assert [t0 for t0, _ in finished] == [2.0, 3.0, 4.0]

    def test_multichannel_parallelism(self):
        sim = Simulator()
        srv = Server(sim, channels=2)
        evs = [srv.request(3.0) for _ in range(2)]
        sim.run()
        # Both served in parallel: no waiting.
        assert all(ev.value == 3.0 for ev in evs)

    def test_queue_length_tracking(self):
        sim = Simulator()
        srv = Server(sim)
        srv.request(10.0)
        srv.request(1.0)
        srv.request(1.0)
        assert srv.queue_length == 2
        assert srv.busy_channels == 1

    def test_stats_counts(self):
        sim = Simulator()
        srv = Server(sim)
        for _ in range(4):
            srv.request(1.0)
        sim.run()
        assert srv.stats.arrivals == 4
        assert srv.stats.departures == 4

    def test_negative_service_rejected(self):
        sim = Simulator()
        srv = Server(sim)
        with pytest.raises(ValidationError):
            srv.request(-1.0)

    def test_zero_channels_rejected(self):
        with pytest.raises(ValidationError):
            Server(Simulator(), channels=0)


class TestAgainstTheory:
    def test_mm1_wait(self, rng):
        lam, mu = 0.6, 1.0
        sim = Simulator()
        srv = Server(sim)
        _drive_poisson(sim, srv, rng, lam, mu, n_jobs=40_000)
        theory = (lam / mu) / (mu - lam)  # M/M/1: Wq = rho/(mu - lam)
        assert srv.stats.mean_wait() == pytest.approx(theory, rel=0.10)

    def test_mm1_utilisation(self, rng):
        lam, mu = 0.5, 1.0
        sim = Simulator()
        srv = Server(sim)
        _drive_poisson(sim, srv, rng, lam, mu, n_jobs=40_000)
        rho = srv.stats.utilisation(sim.now, channels=1)
        assert rho == pytest.approx(0.5, rel=0.05)

    def test_mm1_little_law(self, rng):
        lam, mu = 0.7, 1.0
        sim = Simulator()
        srv = Server(sim)
        _drive_poisson(sim, srv, rng, lam, mu, n_jobs=40_000)
        lq = srv.stats.mean_queue_length(sim.now)
        wq = srv.stats.mean_wait()
        lam_hat = srv.stats.departures / sim.now
        # Little's law: Lq = lambda * Wq.
        assert lq == pytest.approx(lam_hat * wq, rel=0.05)

    def test_mmc_wait(self, rng):
        lam, mu, c = 1.6, 1.0, 2
        sim = Simulator()
        srv = Server(sim, channels=c)
        _drive_poisson(sim, srv, rng, lam, mu, n_jobs=40_000)
        theory = MMc(lam, mu, c).mean_wait
        assert srv.stats.mean_wait() == pytest.approx(theory, rel=0.15)

    def test_md1_waits_half_of_mm1(self, rng):
        # M/D/1 Wq is exactly half of M/M/1 Wq (P-K with scv 0).
        lam, mu = 0.7, 1.0
        sim = Simulator()
        srv = Server(sim)

        def gen():
            for _ in range(40_000):
                yield sim.timeout(rng.exponential(1.0 / lam))
                srv.request(1.0 / mu)

        sim.process(gen())
        sim.run()
        mm1 = (lam / mu) / (mu - lam)
        assert srv.stats.mean_wait() == pytest.approx(mm1 / 2, rel=0.10)


class TestQueueStats:
    def test_zero_horizon(self):
        stats = QueueStats()
        assert stats.mean_queue_length(0.0) == 0.0
        assert stats.utilisation(0.0, 1) == 0.0

    def test_no_departures(self):
        stats = QueueStats()
        assert stats.mean_wait() == 0.0
        assert stats.mean_service() == 0.0
