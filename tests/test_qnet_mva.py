"""MVA tests: the batched exact recursion and the Schweitzer iteration
the flow solver's ladder runs, checked against closed forms."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import obs
from repro.obs import names
from repro.qnet import mva
from repro.qnet.mva import (
    _exact_recursion,
    exact_throughputs_cells,
    schweitzer_throughputs,
)
from repro.resilience.errors import ConvergenceError
from repro.util.validation import ValidationError


def _row(think, *queues, scv=1.0):
    """One chain row: a think (delay) station, then FCFS queues."""
    demands = np.array([[think, *queues]])
    is_queue = np.array([[False] + [True] * len(queues)])
    scvs = np.array([[1.0] + [scv] * len(queues)])
    return demands, is_queue, scvs


def _exact(row, n):
    """``(x, residence, q, u)`` of one row at population ``n``."""
    x, residence, q, u = _exact_recursion(*row, np.array([n]))
    return float(x[0]), residence[0], q[0], u[0]


def _exact_x(row, n):
    """One row's throughput through the entry the flow ladder runs."""
    (x,) = exact_throughputs_cells([(*row, np.array([n]))])
    return float(x[0])


def _repairman(n, think_time, service_time):
    """The M/M/1//N closed form: ``(throughput, mean response)``.

    ``n`` customers think for an exponential ``think_time`` between
    requests to one exponential server of mean ``service_time``.  The
    number at the server has ``p_k ∝ N!/(N-k)! (s/z)^k`` for k = 0..N;
    throughput is ``(1 - p_0)/s`` and the response ``R = N/X - Z``.
    """
    ratio = service_time / think_time
    logs = [0.0]
    for k in range(1, n + 1):
        logs.append(logs[-1] + math.log((n - k + 1) * ratio))
    top = max(logs)
    weights = [math.exp(v - top) for v in logs]
    x = (1.0 - weights[0] / sum(weights)) / service_time
    return x, n / x - think_time


class TestExactMVA:
    def test_population_one_no_queueing(self):
        x, residence, _, _ = _exact(_row(10.0, 1.0), 1)
        assert residence[1] == pytest.approx(1.0)
        assert residence.sum() == pytest.approx(11.0)
        assert x == pytest.approx(1.0 / 11.0)

    def test_population_zero(self):
        # A population-0 row keeps its initial values: no throughput.
        x, _, q, _ = _exact(_row(10.0, 1.0), 0)
        assert x == 0.0
        assert q.sum() == 0.0

    def test_matches_machine_repairman(self):
        # Closed-form M/M/1//N must equal the MVA solution exactly.
        row = _row(10.0, 1.0)
        for n in (1, 2, 5, 12, 30):
            x, response = _repairman(n, think_time=10.0, service_time=1.0)
            assert _exact_x(row, n) == pytest.approx(x, rel=1e-9)
            assert _exact(row, n)[1][1] == pytest.approx(response, rel=1e-9)

    def test_throughput_saturates_at_bottleneck(self):
        x, _, _, _ = _exact(_row(1.0, 2.0), 50)
        # X <= 1/D_max.
        assert x <= 0.5 + 1e-12
        assert x == pytest.approx(0.5, rel=1e-3)

    def test_queue_lengths_sum_to_population(self):
        _, _, q, _ = _exact(_row(5.0, 1.0, 2.0), 7)
        assert q.sum() == pytest.approx(7.0)

    def test_utilisation_law(self):
        x, _, _, u = _exact(_row(5.0, 0.7), 4)
        assert u[1] == pytest.approx(min(x * 0.7, 1.0))

    @given(st.integers(1, 40), st.floats(0.5, 50.0), st.floats(0.1, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_population(self, n, think, demand):
        row = _row(think, demand)
        x_n = _exact(row, n)[0]
        x_n1 = _exact(row, n + 1)[0]
        # Adding a customer never reduces throughput (exact MVA property).
        assert x_n1 >= x_n - 1e-12

    def test_scv_above_one_slows_station(self):
        smooth = _exact(_row(5.0, 1.0, scv=1.0), 8)[1]
        rough = _exact(_row(5.0, 1.0, scv=5.0), 8)[1]
        assert rough[1] > smooth[1]

    def test_zero_demand_network_rejected(self):
        block = (np.array([[0.0]]), np.array([[True]]), np.array([[1.0]]),
                 np.array([3]))
        with pytest.raises(ValidationError, match="zero total demand"):
            exact_throughputs_cells([block])

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


#: One station column: a delay, a queue, or the zero-demand padding the
#: flow solver fills a row to its cell's width with.  Half the demands
#: are of the presets' sizes, where a row total's order shows in its last
#: bits; across wide magnitudes the largest term decides the total.
_DEMAND = st.one_of(st.floats(0.0, 64.0),
                    st.floats(min_value=0.0, allow_nan=False,
                              allow_infinity=False))
_SCV = st.floats(0.0, 8.0)
_COLUMN = st.one_of(st.tuples(st.just(False), _DEMAND, _SCV),
                    st.tuples(st.just(True), _DEMAND, _SCV),
                    st.just((False, 0.0, 1.0)))


@st.composite
def _small_batches(draw):
    """A batch of 1-4 rows, 1-7 columns each, populations 0-60."""
    rows, width = draw(st.integers(1, 4)), draw(st.integers(1, 7))
    columns = draw(st.lists(st.lists(_COLUMN, min_size=width,
                                     max_size=width),
                            min_size=rows, max_size=rows))
    pops = draw(st.lists(st.integers(0, 60), min_size=rows, max_size=rows))
    is_queue, demands, scv = (
        np.array([[column[i] for column in row] for row in columns])
        for i in range(3))
    return demands, is_queue, scv, np.array(pops)


def _outcome(solve, block):
    """``solve``'s throughputs as ``float.hex``, or its error message."""
    try:
        with np.errstate(all="ignore"):
            return [v.hex() for v in solve(block).tolist()]
    except ValidationError as exc:
        return str(exc)


class TestFloatPath:
    """Small batches recurse on Python floats, to numpy's bits."""

    @given(_small_batches())
    # A row whose total rounds to another float in any other order.
    @example((np.array([[1.0, 1.1e-16, 1.1e-16]]), np.zeros((1, 3), bool),
              np.ones((1, 3)), np.array([1])))
    @settings(max_examples=300, deadline=None)
    def test_floats_give_the_numpy_bits(self, block):
        got = _outcome(lambda b: exact_throughputs_cells([b])[0], block)
        want = _outcome(lambda b: _exact_recursion(*b)[0], block)
        assert got == want

    def test_zero_demand_row_raises_the_same_message(self):
        # A population-0 row with zero demand still fails step 1's check
        # when another row steps, on both paths.
        block = (np.array([[2.0, 1.0], [0.0, 0.0]]),
                 np.array([[False, True], [False, True]]),
                 np.ones((2, 2)), np.array([3, 0]))
        messages = []
        for solve in (mva._exact_floats, _exact_recursion):
            with pytest.raises(ValidationError) as err:
                solve(*block)
            messages.append(str(err.value))
        assert messages == ["network has zero total demand"] * 2
        # With no row stepping there is nothing to check.
        idle = (*block[:3], np.array([0, 0]))
        assert mva._exact_floats(*idle).tolist() == [0.0, 0.0]
        assert _exact_recursion(*idle)[0].tolist() == [0.0, 0.0]

    def test_batch_size_and_width_pick_the_path(self, monkeypatch):
        taken = []
        for name in ("_exact_floats", "_exact_recursion"):
            def spy(*args, _real=getattr(mva, name), _name=name):
                taken.append((_name, args[0].shape))
                return _real(*args)
            monkeypatch.setattr(mva, name, spy)

        def block(rows, width):
            return (np.full((rows, width), 0.5), np.ones((rows, width), bool),
                    np.ones((rows, width)), np.full(rows, 6))

        exact_throughputs_cells([block(4, 7)])
        exact_throughputs_cells([block(5, 7)])
        exact_throughputs_cells([block(1, 8)])
        # Cells of one width fuse first: 2 + 3 rows are one 5-row batch.
        exact_throughputs_cells([block(2, 3), block(3, 3)])
        assert taken == [("_exact_floats", (4, 7)),
                         ("_exact_recursion", (5, 7)),
                         ("_exact_recursion", (1, 8)),
                         ("_exact_recursion", (5, 3))]


class TestSchweitzer:
    @pytest.mark.parametrize("n", [1, 4, 16, 48])
    def test_close_to_exact(self, n):
        row = _row(8.0, 1.0, 0.5)
        approx = schweitzer_throughputs(*row, np.array([n]))[0]
        # Schweitzer's error peaks near the saturation knee (~5%).
        assert approx == pytest.approx(_exact_x(row, n), rel=0.08)

    def test_population_zero(self):
        # The batched entry takes populations >= 1 only.
        with pytest.raises(ValidationError, match="populations must be >= 1"):
            schweitzer_throughputs(*_row(10.0, 1.0), np.array([0]))

    def test_unconverged_iterate_is_returned_and_counted(self):
        # A row still moving after ``max_iter`` sweeps is counted in
        # ``nonconverged`` and refused, so the ladder falls to bounds.
        row = _row(8.0, 1.0, 0.5)
        assert schweitzer_throughputs(*row, np.array([16]))[0] > 0.0
        tel = obs.enable(fresh=True)
        try:
            before = tel.metrics.counter(
                names.QNET_MVA_SCHWEITZER_NONCONVERGED).value
            with pytest.raises(ConvergenceError,
                               match="^batched schweitzer AMVA: no "
                                     "convergence after 3 iterations"):
                schweitzer_throughputs(*row, np.array([16]), max_iter=3)
            after = tel.metrics.counter(
                names.QNET_MVA_SCHWEITZER_NONCONVERGED).value
        finally:
            obs.disable()
        assert after == before + 1


class TestRepairman:
    """The M/M/1//N closed form and the exact entry, side by side."""

    def test_utilisation_bounds(self):
        # Utilisation X s with s = 1.
        x, _ = _repairman(10, think_time=1.0, service_time=1.0)
        assert 0.0 < x < 1.0
        assert 0.0 < _exact_x(_row(1.0, 1.0), 10) < 1.0

    def test_interactive_response_law(self):
        # N = X (Z + R): the solver's server residence is the closed
        # form's response, and the two obey the same law.
        x, response = _repairman(6, think_time=10.0, service_time=1.0)
        sx, residence, _, _ = _exact(_row(10.0, 1.0), 6)
        assert residence[1] == pytest.approx(response, rel=1e-9)
        assert sx * (10.0 + residence[1]) == pytest.approx(6.0)
        assert x * (10.0 + response) == pytest.approx(6.0)

    def test_heavy_load_saturation(self):
        x, _ = _repairman(100, think_time=0.1, service_time=1.0)
        assert x == pytest.approx(1.0, abs=1e-6)
        assert _exact_x(_row(0.1, 1.0), 100) == pytest.approx(1.0, abs=1e-6)

    def test_light_load_no_contention(self):
        _, response = _repairman(1, think_time=100.0, service_time=1.0)
        assert response == pytest.approx(1.0, rel=1e-6)
        assert _exact(_row(100.0, 1.0), 1)[1][1] == pytest.approx(1.0)
