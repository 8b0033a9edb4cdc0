import concurrent.futures
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cnls import numerics
from cnls.moments import PhysParams, moment_closed, moment_quadrature
from cnls.numerics import (HALFLINE_STEP, HALFLINE_T_MAX, DomainError,
                           NumericsError, _map_jobs, beta, find_root,
                           integrate_halfline, ln_gamma)


def expsinh_nodes(h: float, t_max: float):
    """Exp-sinh nodes y = exp((pi/2) sinh t) and weights h (pi/2) cosh t y
    on the grid t = k h, |t| <= t_max (rounded up to a whole step)."""
    t = h * np.arange(-math.ceil(t_max / h), math.ceil(t_max / h) + 1)
    y = np.exp(0.5 * math.pi * np.sinh(t))
    return y, h * 0.5 * math.pi * np.cosh(t) * y


class TestIntegrateHalfline:
    def test_lorentzian(self):
        # (1/pi) arctan(2 pi rho) -> 1/2
        f = lambda r: 2.0 / (4 * math.pi ** 2 * r ** 2 + 1.0)
        val, err = integrate_halfline(f, rel_tol=1e-12)
        assert abs(val - 0.5) < 1e-12
        assert err < 1e-10

    def test_exponential(self):
        val, _ = integrate_halfline(lambda r: np.exp(-r), rel_tol=1e-12)
        assert abs(val - 1.0) < 1e-12

    def test_algebraic(self):
        f = lambda r: r / (r ** 2 + 1.0) ** 2
        val, _ = integrate_halfline(f, rel_tol=1e-12)
        assert abs(val - 0.5) < 1e-12

    def test_each_node_is_evaluated_once(self):
        # a halving adds only the odd nodes; the even ones are the nodes of
        # the step before, and together they are the final step's nodes
        seen = []

        def f(r):
            seen.append(r)
            return np.exp(-r) / np.sqrt(r)

        val, _ = integrate_halfline(f, rel_tol=1e-12)
        assert val == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert len(seen) >= 3
        nodes = np.concatenate(seen)
        h = HALFLINE_STEP / 2 ** (len(seen) - 1)
        y, w = expsinh_nodes(h, HALFLINE_T_MAX)
        assert np.array_equal(np.sort(nodes), y)
        assert val == pytest.approx(float(np.sum(f(y) * w)), rel=1e-15)

    def test_bad_decay_rejected(self):
        # the integral diverges: the rule's outermost terms do not decay
        with pytest.raises(NumericsError, match="has not decayed"):
            integrate_halfline(lambda r: 1.0 / (1.0 + r), rel_tol=1e-12)

    def test_slow_tail(self):
        # p = 1.2: value is B(1/6... just check against closed form
        # int_0^inf dr/(1+r)^{1.2} = 1/0.2 = 5
        f = lambda r: (1.0 + r) ** -1.2
        val, _ = integrate_halfline(f, rel_tol=1e-12)
        assert abs(val - 5.0) / 5.0 < 1e-10
        # the moment integrand decays like rho^{-1.1} at n = 1, s = 0.55
        p = PhysParams(n=1, s=0.55, omega=1.0, sigma=1.0)
        closed = moment_closed(1.0, p)
        assert abs(moment_quadrature(1.0, p) - closed) / closed < 1e-13

    @given(a=st.floats(0.1, 5.0), b=st.floats(0.1, 5.0))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, a, b):
        f = lambda r: np.exp(-r)
        g = lambda r: 1.0 / (1.0 + r ** 2) ** 2
        vf, _ = integrate_halfline(f, rel_tol=1e-12)
        vg, _ = integrate_halfline(g, rel_tol=1e-12)
        vc, _ = integrate_halfline(lambda r: a * f(r) + b * g(r),
                                   rel_tol=1e-12)
        assert abs(vc - (a * vf + b * vg)) < 1e-9 * (1 + abs(vc))

    def test_overflowing_integrand_does_not_pass_for_a_small_tail(self):
        # decay exponent 1.0000002: the tail never meets the tolerance, but
        # (2 pi r)^{3.0000002} overflows near r ~ 1e102 and the integrand
        # is 0 past there
        f = lambda r: r ** 2 / ((2 * math.pi * r) ** 3.0000002 + 1.0)
        with pytest.raises(NumericsError, match="overflow"):
            integrate_halfline(f, rel_tol=1e-12)
        # 1/(1 + r^2) written as cosh r / (cosh r (1 + r^2)) is inf/inf, NaN,
        # past r ~ 710, where its tail is still ~ 1e-3
        g = lambda r: np.cosh(r) / (np.cosh(r) * (1.0 + r ** 2))
        with pytest.raises(NumericsError, match="overflow"):
            integrate_halfline(g, rel_tol=1e-12)
        # the moment quadrature subtracts that tail analytically, so it
        # converges at the same decay exponent; the closed form itself
        # carries a relative error of about 1e-16 / (1 - n/(2s)) ~ 6e-10
        p = PhysParams(n=3, s=1.5000001, omega=1.0, sigma=1.0)
        closed = moment_closed(1.0, p)
        assert abs(moment_quadrature(1.0, p) - closed) / closed < 1e-9


class TestGammaBeta:
    def test_gamma_one(self):
        assert ln_gamma(1.0) == 0.0

    def test_gamma_half(self):
        assert abs(ln_gamma(0.5) - math.log(math.sqrt(math.pi))) < 1e-14

    def test_domain(self):
        with pytest.raises(DomainError):
            ln_gamma(0.0)
        with pytest.raises(DomainError):
            beta(-1.0, 2.0)

    @given(a=st.floats(0.05, 20.0), b=st.floats(0.05, 20.0))
    @settings(max_examples=50)
    def test_beta_symmetry_exact(self, a, b):
        assert beta(a, b) == beta(b, a)

    @given(a=st.floats(0.05, 0.95))
    @settings(max_examples=50)
    def test_beta_reflection(self, a):
        # B(a, 1-a) = pi / sin(pi a)
        assert abs(beta(a, 1.0 - a) - math.pi / math.sin(math.pi * a)) \
            < 1e-10 * beta(a, 1.0 - a)

    @given(a=st.floats(0.1, 10.0), b=st.floats(0.1, 10.0))
    @settings(max_examples=25)
    def test_beta_recurrence(self, a, b):
        # B(a+1, b) = B(a, b) * a/(a+b)
        lhs = beta(a + 1.0, b)
        rhs = beta(a, b) * a / (a + b)
        assert abs(lhs - rhs) < 1e-11 * abs(rhs)


class TestFindRoot:
    def test_simple(self):
        r = find_root(lambda x: x ** 2 - 2.0, 0.0, 2.0, tol=1e-13)
        assert abs(r - math.sqrt(2)) < 1e-12

    def test_endpoint_root(self):
        assert find_root(lambda x: x, 0.0, 1.0, tol=1e-13) == 0.0

    def test_no_sign_change(self):
        with pytest.raises(NumericsError, match="have the same sign"):
            find_root(lambda x: x ** 2 + 1.0, -1.0, 1.0, tol=1e-13)

    def test_bad_bracket(self):
        with pytest.raises(DomainError):
            find_root(lambda x: x, 1.0, 1.0, tol=1e-13)

    @pytest.mark.parametrize("lo,hi", [(0.0, 0.0), (math.nan, 1.0),
                                       (0.0, math.nan), (1.0, 0.0)],
                             ids=["hi=0.0", "lo=nan", "hi=nan", "reversed"])
    def test_rejects_a_bracket_without_lo_below_hi(self, lo, hi):
        # checked before f is called: f here would fail the test
        def f(x):
            raise AssertionError("f called on a bad bracket")
        with pytest.raises(DomainError,
                           match=r"^bracket requires lo < hi, got \["):
            find_root(f, lo, hi, tol=1e-13)

    def test_bisection_stops_at_float_resolution(self):
        # a tolerance below the float spacing near the root must not loop
        r = find_root(lambda x: x - 1e5 - 0.1, 0.0, 2e5, tol=0.0)
        assert abs(r - (1e5 + 0.1)) <= 2e-11

    def test_bisection_sign_test_survives_underflow(self):
        # f(0) = -5e-324: its product with any |f| < 1 underflows to -0.0
        r = find_root(lambda x: math.tanh(x) - 5e-324, -5.0, 5.0, tol=1e-13)
        assert abs(r) < 1e-12

    @given(c=st.floats(-0.9, 0.9))
    @settings(max_examples=50, deadline=None)
    def test_matches_atanh(self, c):
        r = find_root(lambda x: math.tanh(x) - c, -5.0, 5.0, tol=1e-13)
        assert abs(r - math.atanh(c)) < 1e-10


def _square(x):
    return x * x


class _FakePool:
    """Stands in for ProcessPoolExecutor: records max_workers and maps in
    this process, so no worker is started."""
    made = []

    def __init__(self, max_workers, mp_context=None):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


class TestMapJobs:
    @pytest.mark.parametrize("jobs", [0, -5])
    def test_rejects_jobs_below_one(self, jobs):
        with pytest.raises(DomainError, match="--jobs"):
            _map_jobs(_square, [1, 2], jobs)

    @pytest.fixture
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(numerics.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            _FakePool)
        _FakePool.made.clear()
        return _FakePool.made

    def test_workers_capped_at_cpu_count(self, two_cpus):
        assert _map_jobs(_square, [1, 2, 3], 4) == [1, 4, 9]
        assert _map_jobs(_square, [3], 10**6) == [9]
        assert two_cpus == [2, 2]

    def test_one_job_runs_in_process(self, two_cpus):
        assert _map_jobs(_square, [1, 2, 3], 1) == [1, 4, 9]
        assert two_cpus == []

    def test_one_cpu_runs_in_process(self, two_cpus, monkeypatch):
        monkeypatch.setattr(numerics.os, "cpu_count", lambda: None)
        assert _map_jobs(_square, [1, 2], 4) == [1, 4]
        assert two_cpus == []
