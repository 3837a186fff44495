"""Tests for the open queues: the model's M/M/1 law and M/M/c (Erlang-C)."""

import pytest

from repro.core.uniproc import ModelError
from repro.qnet.mmc import MMc, erlang_c
from repro.util.validation import ValidationError
from test_model_edges import _model


class TestMM1:
    """Eq. 5, the M/M/1 response time, as the model computes it."""

    def test_creq_is_paper_equation_five(self):
        # Creq(n) = 1/(mu - n L), the paper's service-time law.
        model = _model(mu=1.0, ell=0.1)
        for n in range(1, 10):
            assert model.creq(n) == 1.0 / (model.mu - n * model.ell)
        assert model.creq(5) == pytest.approx(2.0)
        with pytest.raises(ModelError, match="saturated"):
            model.creq(10)


class TestMMc:
    def test_reduces_to_mm1(self):
        single = MMc(lam=0.5, mu=1.0, c=1)
        # M/M/1: Wq = rho/(mu - lam), and an arrival waits with P = rho.
        assert single.mean_wait == pytest.approx((0.5 / 1.0) / (1.0 - 0.5))
        assert single.prob_wait == pytest.approx(0.5)

    def test_erlang_c_known_value(self):
        # Classic: c=2, a=1 Erlang -> P(wait) = 1/3.
        assert erlang_c(2, 1.0) == pytest.approx(1.0 / 3.0)

    def test_more_channels_less_waiting(self):
        w2 = MMc(lam=1.5, mu=1.0, c=2).mean_wait
        w3 = MMc(lam=1.5, mu=1.0, c=3).mean_wait
        assert w3 < w2

    def test_littles_law(self):
        q = MMc(lam=2.5, mu=1.0, c=3)
        assert q.mean_number_in_queue == pytest.approx(q.lam * q.mean_wait)

    def test_unstable_rejected(self):
        with pytest.raises(ValidationError):
            MMc(lam=2.0, mu=1.0, c=2)
