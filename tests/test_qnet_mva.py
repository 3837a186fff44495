"""MVA tests: exact recursion, Schweitzer approximation, Seidmann pooling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.obs import names
from repro.qnet.mva import (
    ClosedNetwork,
    DelayStation,
    QueueingStation,
    _exact_recursion,
    _station_arrays,
    exact_mva,
    schweitzer_amva,
    schweitzer_throughputs,
)
from repro.qnet.repairman import MachineRepairman
from repro.resilience.errors import ConvergenceError
from repro.util.validation import ValidationError


def _simple_net(think=10.0, demand=1.0):
    return ClosedNetwork([
        DelayStation("think", think),
        QueueingStation("server", demand),
    ])


class TestExactMVA:
    def test_population_one_no_queueing(self):
        res = _simple_net().solve(1)
        assert res.residence_of("server") == pytest.approx(1.0)
        assert res.cycle_time == pytest.approx(11.0)
        assert res.throughput == pytest.approx(1.0 / 11.0)

    def test_population_zero(self):
        res = _simple_net().solve(0)
        assert res.throughput == 0.0

    def test_matches_machine_repairman(self):
        # Closed-form M/M/1//N must equal the MVA solution exactly.
        for n in (1, 2, 5, 12, 30):
            res = _simple_net(think=10.0, demand=1.0).solve(n)
            rm = MachineRepairman(n, think_time=10.0, service_time=1.0)
            assert res.throughput == pytest.approx(rm.throughput, rel=1e-9)
            assert res.residence_of("server") == pytest.approx(
                rm.mean_response, rel=1e-9)

    def test_throughput_saturates_at_bottleneck(self):
        res = _simple_net(think=1.0, demand=2.0).solve(50)
        # X <= 1/D_max.
        assert res.throughput <= 0.5 + 1e-12
        assert res.throughput == pytest.approx(0.5, rel=1e-3)

    def test_queue_lengths_sum_to_population(self):
        net = ClosedNetwork([
            DelayStation("z", 5.0),
            QueueingStation("a", 1.0),
            QueueingStation("b", 2.0),
        ])
        res = net.solve(7)
        assert sum(res.queue_lengths) == pytest.approx(7.0)

    def test_utilisation_law(self):
        res = _simple_net(think=5.0, demand=0.7).solve(4)
        assert res.utilisation_of("server") == pytest.approx(
            min(res.throughput * 0.7, 1.0))

    @given(st.integers(1, 40), st.floats(0.5, 50.0), st.floats(0.1, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_population(self, n, think, demand):
        net = _simple_net(think, demand)
        x_n = net.solve(n).throughput
        x_n1 = net.solve(n + 1).throughput
        # Adding a customer never reduces throughput (exact MVA property).
        assert x_n1 >= x_n - 1e-12

    def test_scv_above_one_slows_station(self):
        smooth = ClosedNetwork([
            DelayStation("z", 5.0), QueueingStation("s", 1.0, scv=1.0)])
        rough = ClosedNetwork([
            DelayStation("z", 5.0), QueueingStation("s", 1.0, scv=5.0)])
        assert rough.solve(8).residence_of("s") \
            > smooth.solve(8).residence_of("s")

    def test_unknown_station_lookup(self):
        res = _simple_net().solve(2)
        with pytest.raises(ValidationError):
            res.residence_of("nope")

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError):
            ClosedNetwork([DelayStation("x", 1.0), DelayStation("x", 2.0)])

    def test_empty_network_rejected(self):
        with pytest.raises(ValidationError):
            ClosedNetwork([])

    def test_zero_demand_network_rejected(self):
        net = ClosedNetwork([QueueingStation("s", 0.0)])
        with pytest.raises(ValidationError):
            net.solve(3)

    def test_batch_rows_get_their_solo_bits_in_any_order(self):
        # The batched recursion steps the rows still live at step k as a
        # prefix of the batch sorted by population; every row, in any
        # input order and with population 0 among them, must come back
        # in its place with the bits it gets when solved alone.
        rng = np.random.default_rng(7)
        for _ in range(40):
            n, w = rng.integers(1, 7, size=2)
            demands = rng.exponential(1.0, (n, w))
            demands[:, 0] += 0.1
            is_queue = rng.random((n, w)) < 0.6
            scv = rng.exponential(1.0, (n, w))
            pops = rng.integers(0, 13, n)
            batch = _exact_recursion(demands, is_queue, scv, pops)
            for i in range(n):
                alone = _exact_recursion(demands[i:i + 1], is_queue[i:i + 1],
                                         scv[i:i + 1], pops[i:i + 1])
                for got, want in zip(batch, alone):
                    assert got[i].tobytes() == want[0].tobytes()


class TestSeidmannMultiserver:
    def test_population_one_sees_full_demand(self):
        net = ClosedNetwork([
            DelayStation("z", 10.0),
            QueueingStation("mc", 2.0, channels=2),
        ])
        res = net.solve(1)
        # Seidmann: D/m queueing + D(m-1)/m delay = D at population 1.
        assert res.residence_of("mc") == pytest.approx(2.0)

    def test_multiserver_beats_single_at_load(self):
        single = ClosedNetwork([
            DelayStation("z", 1.0), QueueingStation("mc", 2.0, channels=1)])
        dual = ClosedNetwork([
            DelayStation("z", 1.0), QueueingStation("mc", 2.0, channels=2)])
        assert dual.solve(16).throughput > single.solve(16).throughput

    def test_collapse_preserves_station_names(self):
        net = ClosedNetwork([
            DelayStation("z", 1.0),
            QueueingStation("mc", 2.0, channels=3),
        ])
        res = net.solve(4)
        assert res.station_names == ("z", "mc")


class TestSchweitzer:
    @pytest.mark.parametrize("n", [1, 4, 16, 48])
    def test_close_to_exact(self, n):
        net = ClosedNetwork([
            DelayStation("z", 8.0),
            QueueingStation("a", 1.0),
            QueueingStation("b", 0.5),
        ])
        exact = exact_mva(net, n)
        approx = schweitzer_amva(net, n)
        # Schweitzer's error peaks near the saturation knee (~5%).
        assert approx.throughput == pytest.approx(
            exact.throughput, rel=0.08)

    def test_population_zero(self):
        assert schweitzer_amva(_simple_net(), 0).throughput == 0.0

    def test_method_dispatch(self):
        net = _simple_net()
        assert net.solve(5, method="schweitzer").population == 5
        with pytest.raises(ValidationError):
            net.solve(5, method="bogus")

    def test_one_network_is_one_batched_row(self):
        # A scalar solve runs the batched iteration on one row: the
        # same throughput, bit for bit, on random single-channel nets.
        rng = np.random.default_rng(2011)
        for _ in range(300):
            stations = [QueueingStation(f"q{i}", float(rng.uniform(0.01, 5)),
                                        scv=float(rng.uniform(0.0, 4.0)))
                        for i in range(int(rng.integers(1, 7)))]
            if rng.random() < 0.8:
                stations.insert(int(rng.integers(0, len(stations) + 1)),
                                DelayStation("z", float(rng.uniform(0, 20))))
            n = int(rng.integers(1, 40))
            demands, is_queue, scv = _station_arrays(stations)
            x = schweitzer_throughputs(demands[None, :], is_queue[None, :],
                                       scv[None, :], np.array([n]))
            assert schweitzer_amva(ClosedNetwork(stations), n).throughput \
                == x[0]

    def test_unconverged_iterate_is_returned_and_counted(self):
        net = ClosedNetwork([DelayStation("z", 8.0),
                             QueueingStation("a", 1.0),
                             QueueingStation("b", 0.5)])
        converged = schweitzer_amva(net, 16)
        tel = obs.enable(fresh=True)
        try:
            before = tel.metrics.counter(
                names.QNET_MVA_SCHWEITZER_NONCONVERGED).value
            stopped = schweitzer_amva(net, 16, max_iter=3)
            after = tel.metrics.counter(
                names.QNET_MVA_SCHWEITZER_NONCONVERGED).value
        finally:
            obs.disable()
        assert after == before + 1
        assert 0.0 < stopped.throughput != converged.throughput
        # The batched entry refuses the same unconverged rows.
        demands, is_queue, scv = _station_arrays(net.stations)
        with pytest.raises(ConvergenceError,
                           match="^batched schweitzer AMVA: no convergence "
                                 "after 3 iterations"):
            schweitzer_throughputs(demands[None, :], is_queue[None, :],
                                   scv[None, :], np.array([16]), max_iter=3)


class TestRepairman:
    def test_utilisation_bounds(self):
        rm = MachineRepairman(10, think_time=1.0, service_time=1.0)
        assert 0.0 < rm.utilisation < 1.0

    def test_interactive_response_law(self):
        rm = MachineRepairman(6, think_time=10.0, service_time=1.0)
        # R = N/X - Z holds by construction; check consistency instead:
        assert rm.cycle_time == pytest.approx(6.0 / rm.throughput)

    def test_heavy_load_saturation(self):
        rm = MachineRepairman(100, think_time=0.1, service_time=1.0)
        assert rm.utilisation == pytest.approx(1.0, abs=1e-6)
        assert rm.throughput == pytest.approx(1.0, abs=1e-6)

    def test_light_load_no_contention(self):
        rm = MachineRepairman(1, think_time=100.0, service_time=1.0)
        assert rm.mean_response == pytest.approx(1.0, rel=1e-6)
