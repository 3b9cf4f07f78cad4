import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import cumulative_trapezoid
from scipy.optimize import brentq

import tcm2d as t
from tcm2d.errors import BadSeries, Infeasible
from tcm2d.gronwall import _cumtrapz, a_prime


def const_series(T=1.0, m=101, A=1.0, B=1.0, alpha=0.0, beta=0.0, K=1.0):
    ts = np.linspace(0.0, T, m)
    ones = np.ones_like(ts)
    return t.GronwallSeries(
        times=ts, A=A * ones, B=B * ones, alpha=alpha * ones, beta=beta * ones, K=K
    )


def equality_ode_series(m=401):
    """A = exp(t+1), K = 1, alpha = 1, beta = 0, and B the larger root of
    B = A log B, which makes the hypothesis an equality at every sample."""
    ts = np.linspace(0.0, 1.0, m)
    A = np.exp(ts + 1.0)
    B = np.array([brentq(lambda b, c=c: b - c * np.log(b), c, 100.0 * c) for c in A])
    return t.GronwallSeries(times=ts, A=A, B=B, alpha=np.ones_like(ts), beta=np.zeros_like(ts), K=1.0)


class TestSeriesValidation:
    def test_reports_first_bad_index(self):
        ts = np.array([0.0, 1.0, 2.0])
        good = np.ones(3)
        with pytest.raises(BadSeries) as info:
            t.GronwallSeries(times=ts, A=np.array([1.0, 0.5, 1.0]), B=good, alpha=good, beta=good, K=1.0)
        assert info.value.index == 1
        with pytest.raises(BadSeries):
            t.GronwallSeries(times=np.array([0.0, 2.0, 1.0]), A=good, B=good, alpha=good, beta=good, K=1.0)
        with pytest.raises(BadSeries):
            t.GronwallSeries(times=ts, A=good, B=np.array([1.0, 1.0, 0.0]), alpha=good, beta=good, K=1.0)
        with pytest.raises(BadSeries):
            t.GronwallSeries(times=ts, A=good, B=good, alpha=good, beta=good, K=0.0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("name", ["times", "A", "B", "alpha", "beta"])
    def test_rejects_non_finite_sample(self, name, bad):
        cols = {"times": np.array([0.0, 1.0, 2.0]), "A": np.ones(3), "B": np.ones(3), "alpha": np.ones(3),
                "beta": np.ones(3)}
        cols[name] = np.where(cols["times"] == 1.0, bad, cols[name])
        with pytest.raises(BadSeries, match=f"{name} not finite") as info:
            t.GronwallSeries(**cols, K=1.0)
        assert info.value.index == 1

    @pytest.mark.parametrize("K", [np.inf, np.nan])
    def test_rejects_k_not_finite_and_positive(self, K):
        with pytest.raises(BadSeries, match="K must be finite and positive"):
            const_series(K=K)

    def test_requires_two_samples(self):
        with pytest.raises(BadSeries):
            t.GronwallSeries(times=[0.0], A=[1.0], B=[1.0], alpha=[0.0], beta=[0.0], K=1.0)


@pytest.mark.parametrize("m", [1, 2, 101])
def test_cumtrapz_bit_equal_to_scipy(m):
    rng = np.random.default_rng(m)
    ts = np.cumsum(rng.random(m))  # non-uniform, strictly increasing
    y = rng.standard_normal(m)
    assert np.array_equal(_cumtrapz(y, ts), cumulative_trapezoid(y, ts, initial=0.0))


class TestQOfT:
    def test_pure_growth_value(self):
        # A(0)=1, alpha=beta=0, K=1: Q(1) = 2 e
        g = const_series(K=1.0)
        q = t.q_of_t(g)
        assert abs(q[-1] - 2.0 * np.e) < 1e-12
        assert abs(q[0] - 0.0) < 1e-15

    def test_zero_time_is_log_a0(self):
        g = const_series(A=5.0, K=3.0)
        assert abs(t.q_of_t(g)[0] - np.log(5.0)) < 1e-14

    def test_direct_evaluation(self):
        # A(0)=e, alpha=1, beta=0, K=2, t=1/2: Q = (1 + 2*0.5 + 4*0.5*2)*e = 6e
        g = const_series(T=0.5, A=np.e, alpha=1.0, K=2.0)
        assert abs(t.q_of_t(g)[-1] - 6.0 * np.e) < 1e-12

    def test_nondecreasing(self):
        rng = np.random.default_rng(0)
        ts = np.linspace(0.0, 2.0, 64)
        g = t.GronwallSeries(
            times=ts,
            A=1.0 + rng.random(64),
            B=0.5 + rng.random(64),
            alpha=rng.random(64),
            beta=rng.random(64),
            K=1.3,
        )
        assert np.all(np.diff(t.q_of_t(g)) >= -1e-12)

    def test_k_whose_square_overflows(self):
        # Q(0) = log A(0), and an infinite Q after it: the envelope holds
        g = const_series(A=2.0, B=np.e, K=1e200)
        q = t.q_of_t(g)
        assert q[0] == np.log(2.0) and np.all(np.isposinf(q[1:]))
        assert t.conclusion_check(g).outcome == "holds"

    def test_quadrature_refinement(self):
        # alpha = t^2 has exact integral t^3/3; trapezoid error is O(dt^2)
        def q_last(m):
            ts = np.linspace(0.0, 1.0, m)
            g = t.GronwallSeries(
                times=ts, A=np.ones(m), B=np.ones(m), alpha=ts**2, beta=np.zeros(m), K=1.0
            )
            return t.q_of_t(g)[-1]

        exact = (1.0 / 3.0 + 2.0) * np.e
        e1 = abs(q_last(51) - exact)
        e2 = abs(q_last(101) - exact)
        assert 3.0 < e1 / e2 < 5.0


class TestHypothesis:
    def test_equality_constant_beta(self):
        g = const_series(beta=1.0, K=4.2)
        rep = t.verify_hypothesis(g)
        assert np.max(np.abs(rep.margins)) < 1e-12
        assert rep.holds

    def test_equality_log_b(self):
        g = const_series(B=np.e, K=np.e)
        rep = t.verify_hypothesis(g)
        assert np.max(np.abs(rep.margins)) < 1e-12
        assert rep.holds

    def test_equality_ode_family(self):
        g = equality_ode_series()
        rep = t.verify_hypothesis(g)
        assert rep.holds
        assert np.max(np.abs(rep.margins / rep.scale)) < 1e-5  # quadrature-limited

    @settings(max_examples=25, deadline=None)
    @given(
        bump=st.floats(min_value=0.0, max_value=10.0),
        k_extra=st.floats(min_value=0.0, max_value=5.0),
    )
    def test_margins_monotone_in_beta_and_k(self, bump, k_extra):
        base = const_series(B=2.0, beta=1.0, K=1.0)
        rep = t.verify_hypothesis(base)
        bigger_beta = const_series(B=2.0, beta=1.0 + bump, K=1.0)
        assert np.all(t.verify_hypothesis(bigger_beta).margins >= rep.margins - 1e-12)
        bigger_k = const_series(B=2.0, beta=1.0, K=1.0 + k_extra)
        # log B >= 0 here, so growing K cannot shrink margins
        assert np.all(t.verify_hypothesis(bigger_k).margins >= rep.margins - 1e-12)


class TestConclusion:
    def test_constant_case_holds_with_slack(self):
        g = const_series(beta=1.0, K=1.0)
        rep = t.conclusion_check(g)
        assert rep.outcome == "holds"
        assert abs(rep.lhs[-1] - 2.0) < 1e-12
        # rhs = (2Q+1) e^Q with Q(1) = 3e
        assert abs(rep.log_rhs[-1] - (3 * np.e + np.log(6 * np.e + 1))) < 1e-10

    def test_initial_sample_bound(self):
        g = const_series(A=3.0, beta=1.0, K=1.0)
        rep = t.conclusion_check(g)
        assert rep.satisfied[0]
        assert rep.lhs[0] == 3.0

    def test_equality_ode_family_holds(self):
        rep = t.conclusion_check(equality_ode_series())
        assert rep.outcome == "holds"
        assert np.all(rep.satisfied)

    def test_not_applicable_when_hypothesis_fails(self):
        ts = np.linspace(0.0, 1.0, 51)
        g = t.GronwallSeries(
            times=ts, A=np.exp(10 * ts), B=np.ones_like(ts),
            alpha=np.zeros_like(ts), beta=np.zeros_like(ts), K=0.1,
        )
        rep = t.conclusion_check(g)
        assert not rep.hypothesis.holds
        assert rep.outcome == "not-applicable"

    def test_not_applicable_when_a_prime_overflows(self):
        # the end-point stencils of A' pass the float range: the hypothesis
        # fails there, with no warning, instead of passing on a margin and
        # a scale that are both infinite and calling the envelope violated
        ts = np.arange(5.0)
        g = t.GronwallSeries(
            times=ts, A=np.array([1.0, 1e308, 1.0, 1e308, 1.0]), B=np.ones_like(ts),
            alpha=np.zeros_like(ts), beta=np.full_like(ts, 10.0), K=1.0,
        )
        rep = t.conclusion_check(g)
        assert np.isinf(a_prime(g)[[0, -1]]).all()
        assert not rep.hypothesis.holds
        assert rep.outcome == "not-applicable"
        assert not rep.satisfied.all()  # the envelope, unguarded, would read violated

    def test_envelope_nondecreasing(self):
        g = equality_ode_series(m=101)
        rep = t.conclusion_check(g)
        assert np.all(np.diff(rep.log_rhs) >= -1e-9)


class TestFitMinK:
    def test_nonpositive_numerator_clips_to_floor(self):
        ts = np.linspace(0.0, 1.0, 11)
        one = np.ones_like(ts)
        fit = t.fit_min_k(ts, one, one, 0.0 * one, one)
        assert fit.K == 1e-6

    def test_equality_case(self):
        ts = np.linspace(0.0, 1.0, 11)
        one = np.ones_like(ts)
        fit = t.fit_min_k(ts, one, np.e * one, 0.0 * one, 0.0 * one)
        assert abs(fit.K - np.e) < 1e-12

    def test_infeasible(self):
        ts = np.linspace(0.0, 1.0, 11)
        one = np.ones_like(ts)
        with pytest.raises(Infeasible):
            t.fit_min_k(ts, one, 0.5 * one, 0.0 * one, 0.0 * one)

    def test_fitted_k_satisfies_hypothesis(self):
        rng = np.random.default_rng(1)
        ts = np.linspace(0.0, 1.0, 101)
        A = 1.0 + np.cumsum(rng.random(101)) * 0.01
        B = 1.5 + rng.random(101)
        alpha = rng.random(101)
        beta = rng.random(101) * 0.1
        fit = t.fit_min_k(ts, A, B, alpha, beta)
        g = t.GronwallSeries(times=ts, A=A, B=B, alpha=alpha, beta=beta, K=fit.K)
        assert t.verify_hypothesis(g, tol=1e-9).holds
