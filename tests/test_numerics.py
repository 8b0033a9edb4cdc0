import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cnls.numerics import (BadDecay, Bracket, DomainError, NoSignChange,
                           QuadratureSpec, beta, find_root,
                           integrate_halfline, ln_gamma)


class TestIntegrateHalfline:
    def test_lorentzian(self):
        # (1/pi) arctan(2 pi rho) -> 1/2
        f = lambda r: 2.0 / (4 * math.pi ** 2 * r ** 2 + 1.0)
        val, err = integrate_halfline(f, 2.0)
        assert abs(val - 0.5) < 1e-12
        assert err < 1e-10

    def test_exponential(self):
        val, _ = integrate_halfline(lambda r: np.exp(-r), 50.0)
        assert abs(val - 1.0) < 1e-12

    def test_algebraic(self):
        f = lambda r: r / (r ** 2 + 1.0) ** 2
        val, _ = integrate_halfline(f, 3.0)
        assert abs(val - 0.5) < 1e-12

    def test_bad_decay_rejected(self):
        with pytest.raises(BadDecay):
            integrate_halfline(lambda r: 1.0 / (1.0 + r), 1.0)

    def test_slow_tail(self):
        # p = 1.2: value is B(1/6... just check against closed form
        # int_0^inf dr/(1+r)^{1.2} = 1/0.2 = 5
        f = lambda r: (1.0 + r) ** -1.2
        val, _ = integrate_halfline(f, 1.2)
        assert abs(val - 5.0) / 5.0 < 1e-10

    @given(a=st.floats(0.1, 5.0), b=st.floats(0.1, 5.0))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, a, b):
        f = lambda r: np.exp(-r)
        g = lambda r: 1.0 / (1.0 + r ** 2) ** 2
        vf, _ = integrate_halfline(f, 40.0)
        vg, _ = integrate_halfline(g, 4.0)
        vc, _ = integrate_halfline(lambda r: a * f(r) + b * g(r), 4.0)
        assert abs(vc - (a * vf + b * vg)) < 1e-9 * (1 + abs(vc))

    def test_fixed_cutoff(self):
        spec = QuadratureSpec(tail_cutoff=50.0)
        val, err = integrate_halfline(lambda r: np.exp(-r), 10.0, spec)
        assert abs(val - 1.0) < 1e-10


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
        r = find_root(lambda x: x ** 2 - 2.0, Bracket(0.0, 2.0))
        assert abs(r - math.sqrt(2)) < 1e-12

    def test_endpoint_root(self):
        assert find_root(lambda x: x, Bracket(0.0, 1.0)) == 0.0

    def test_no_sign_change(self):
        with pytest.raises(NoSignChange):
            find_root(lambda x: x ** 2 + 1.0, Bracket(-1.0, 1.0))

    def test_bad_bracket(self):
        with pytest.raises(DomainError):
            Bracket(1.0, 1.0)

    def test_bisection_stops_at_float_resolution(self):
        # a tolerance below the float spacing near the root must not loop
        r = find_root(lambda x: x - 1e5 - 0.1, Bracket(0.0, 2e5), tol=0.0,
                      bisection_only=True)
        assert abs(r - (1e5 + 0.1)) <= 2e-11

    def test_bisection_sign_test_survives_underflow(self):
        # f(0) = -5e-324: its product with any |f| < 1 underflows to -0.0
        r = find_root(lambda x: math.tanh(x) - 5e-324, Bracket(-5.0, 5.0),
                      tol=1e-13, bisection_only=True)
        assert abs(r) < 1e-12

    @given(c=st.floats(-0.9, 0.9))
    @settings(max_examples=50, deadline=None)
    def test_brent_matches_bisection(self, c):
        f = lambda x: math.tanh(x) - c
        fast = find_root(f, Bracket(-5.0, 5.0), tol=1e-13)
        slow = find_root(f, Bracket(-5.0, 5.0), tol=1e-13,
                         bisection_only=True)
        assert abs(fast - slow) < 1e-10
