import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cnls.moments import PhysParams, moment_closed
from cnls.numerics import (Bracket, DomainError, NonConvergence,
                           RootSearchInconclusive, find_root)
from cnls.spectrum import (BoundState, NotApplicable, OracleGrid, bound_state,
                           classify, coercivity_gap, default_grid,
                           discrete_eigen_determinant, eigen_determinant,
                           jl_dense_eigenvalues, lpm_eigenvalues,
                           oracle_eigen_determinant,
                           oracle_unstable_eigenvalue, secular_eigenvalues,
                           sigma_critical, unstable_eigenvalue, vk_quantity)
from cnls.waves import sobolev_constant

CLASSICAL = PhysParams(n=1, s=1.0, omega=1.0, sigma=1.0)

# frozen semi-analytic roots at n=1, s=1, omega=1 (closed forms via
# I_m - i I_lam = 1/(2 sqrt(1 + i lam)))
LAMBDA_STAR = {1.5: 3.354101966249684,
               2.0: 4.0 * math.sqrt(3.0),
               3.0: 12.0 * math.sqrt(2.0)}


class TestBoundStates:
    def test_classical_delta_well(self):
        # s=1 well: eigenvalue omega - mu^2/4
        st_ = bound_state(4.0, CLASSICAL)
        assert st_.eigenvalue == pytest.approx(-3.0, abs=1e-12)
        assert st_.regime == "above_c2"

    def test_shallow_well(self):
        st_ = bound_state(1.0, CLASSICAL)  # mu < c2 = 2
        assert st_.eigenvalue == pytest.approx(0.75, abs=1e-12)
        assert st_.regime == "below_c2"

    def test_threshold(self):
        st_ = bound_state(2.0, CLASSICAL)
        assert st_.eigenvalue == 0.0
        assert st_.regime == "at_c2"

    def test_rejects_nonpositive_mu(self):
        with pytest.raises(DomainError):
            bound_state(0.0, CLASSICAL)

    def test_overflow_names_the_eigenvalue(self):
        # a = n/(2s) ~ 1 - 7e-5: (mu/c^2)^{1/(1-a)} passes the largest float
        p = PhysParams(n=3, s=1.5001, omega=1.0, sigma=0.99)
        mu_plus = (2 * p.sigma + 1) * sobolev_constant(p)
        with pytest.raises(NonConvergence, match=r"L\+ .* mu/c\^2 = 2\.98"):
            bound_state(mu_plus, p)

    @given(mu=st.floats(0.1, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_s1_closed_form(self, mu):
        # at n=1, s=1 both regimes collapse to eigenvalue omega - mu^2/4
        # (M_1(lam) = 1/(2 sqrt(lam)))
        b = bound_state(mu, CLASSICAL)
        assert b.eigenvalue == pytest.approx(1.0 - mu * mu / 4.0, abs=1e-10)


class TestVKQuantity:
    def test_exact_fractions(self):
        vals = {1.0: 0.0, 2.0: 1.0 / 32.0, 0.5: -1.0 / 16.0}
        for sig, q in vals.items():
            p = PhysParams(n=1, s=1.0, omega=1.0, sigma=sig)
            assert vk_quantity(p) == pytest.approx(q, abs=1e-12)

    @given(n=st.integers(1, 3), s_rel=st.floats(0.55, 3.0),
           sig=st.floats(0.1, 4.0))
    @settings(max_examples=100, deadline=None)
    def test_sign_matches_threshold(self, n, s_rel, sig):
        s = s_rel * n
        p = PhysParams(n=n, s=s, omega=1.0, sigma=sig)
        crit = sigma_critical(p)
        if abs(sig - crit) < 1e-6:
            return
        q = vk_quantity(p)
        assert (q > 0) == (sig > crit)

    def test_classification_labels(self):
        stable = classify(PhysParams(1, 1.0, 1.0, 0.5),
                          want_unstable_lambda=False)
        unstable = classify(PhysParams(1, 1.0, 1.0, 2.0),
                            want_unstable_lambda=False)
        degenerate = classify(PhysParams(1, 1.0, 1.0, 1.0),
                              want_unstable_lambda=False)
        assert stable.classification == "stable"
        assert unstable.classification == "unstable"
        assert degenerate.classification == "degenerate"
        # index bookkeeping: k_r = 1 - n(D) off the threshold, n(L) = 1;
        # at sigma = sigma* neither count is 1
        assert stable.k_r == 0 and stable.n_D == 1
        assert unstable.k_r == 1 and unstable.n_D == 0
        assert degenerate.k_r == 0 and degenerate.n_D == 0
        assert stable.n_L == unstable.n_L == 1


class TestLinearizedEigenvalue:
    @pytest.mark.parametrize("sig", [1.5, 2.0, 3.0])
    def test_frozen_roots(self, sig):
        p = PhysParams(n=1, s=1.0, omega=1.0, sigma=sig)
        lam = unstable_eigenvalue(p)
        assert lam == pytest.approx(LAMBDA_STAR[sig], rel=1e-9)

    def test_stable_returns_none(self):
        # also at sigma = sigma* (degenerate): no real unstable eigenvalue
        for sig in (0.5, 1.0):
            p = PhysParams(n=1, s=1.0, omega=1.0, sigma=sig)
            assert unstable_eigenvalue(p) is None

    def test_small_lambda_limit(self):
        # D(lambda)/lambda^2 -> -2 sigma c^2 Q
        for sig in (0.5, 2.0):
            p = PhysParams(n=1, s=1.0, omega=1.0, sigma=sig)
            target = -2.0 * sig * sobolev_constant(p) * vk_quantity(p)
            got = eigen_determinant(1e-4, p) / 1e-8
            assert got == pytest.approx(target, rel=1e-3)

    def test_determinant_saturates_to_one(self):
        p = PhysParams(n=1, s=1.0, omega=1.0, sigma=2.0)
        assert eigen_determinant(1e6, p) == pytest.approx(1.0, abs=1e-2)

    def test_root_beyond_1e12_omega(self):
        # a = n/(2s) -> 1: the root grows like (2 sigma + 1)^{1/(1-a)} omega
        # (the CLI test pins n=3, s=1.51, sigma=0.99 at 3.98e71)
        p = PhysParams(n=2, s=1.02, omega=1e4, sigma=3.0)
        lam = unstable_eigenvalue(p)
        assert lam > 1e12 * p.omega
        assert eigen_determinant(0.999 * lam, p) < 0 < \
            eigen_determinant(1.001 * lam, p)

    def test_large_lambda_branch_is_continuous(self):
        # log1p(x^2) switches form at x = 1e150
        p = PhysParams(n=3, s=1.51, omega=1.0, sigma=0.99)
        below = eigen_determinant(1e150 * (1 - 1e-15), p)
        above = eigen_determinant(1e150, p)
        assert above == pytest.approx(below, abs=1e-13)

    def test_root_beyond_the_floats_is_inconclusive(self):
        with pytest.raises(RootSearchInconclusive):
            unstable_eigenvalue(PhysParams(n=3, s=1.5001, omega=1.0,
                                           sigma=0.99))

    def test_report_carries_lambda(self):
        rep = classify(PhysParams(1, 1.0, 1.0, 2.0))
        assert rep.unstable_lambda == pytest.approx(4.0 * math.sqrt(3.0),
                                                    rel=1e-8)


def _bound_state_by_root(mu, params):
    """Root-finding route to the lowest L_mu eigenvalue: solve
    mu M_1(omega - E) = 1 for E with M_1 from the Beta function."""
    c2 = 1.0 / moment_closed(1.0, params)
    om = params.omega

    def f(e):
        shifted = PhysParams(params.n, params.s, om - e, params.sigma)
        return mu * moment_closed(1.0, shifted) - 1.0

    if mu < c2:
        return find_root(f, Bracket(0.0, om * (1 - 1e-15)), tol=1e-14)
    lo = -om
    while f(lo) > 0:
        lo *= 2.0
    return find_root(f, Bracket(lo, 0.0), tol=1e-14)


# fixed oracle grid: s/n >= 0.75 keeps the quadrature tails short; sigma
# 0.4, 1.0, 2.5 falls on both sides of sigma* = 2s/n - 1 at both orders
ORACLE_GRID = [PhysParams(n, r * n, 1.3, sig) for n in (1, 2, 3)
               for r in (0.75, 1.5) for sig in (0.4, 1.0, 2.5)]


class TestClosedFormOracles:
    @pytest.mark.parametrize("p", ORACLE_GRID,
                             ids=lambda p: f"n{p.n}-s{p.s:g}-sig{p.sigma:g}")
    def test_determinant_matches_quadrature(self, p):
        for x in (1e-8, 0.5, 5.0, 50.0):
            lam = x * p.omega
            assert abs(eigen_determinant(lam, p)
                       - oracle_eigen_determinant(lam, p)) <= 1e-10

    @pytest.mark.parametrize("p", ORACLE_GRID,
                             ids=lambda p: f"n{p.n}-s{p.s:g}-sig{p.sigma:g}")
    def test_small_lambda_sign(self, p):
        # D ~ -2 sigma c^2 Q lambda^2: at 1e-8 omega both terms of D are
        # O(1e-16), so a cancelling evaluation returns round-off here
        d = eigen_determinant(1e-8 * p.omega, p)
        q = vk_quantity(p)
        assert (d < 0) == (q > 0) and (d > 0) == (q < 0)

    @pytest.mark.parametrize("n, s", [(1, 1.0), (1, 0.75), (2, 1.7),
                                      (3, 2.4)])
    def test_bound_state_matches_root_finder(self, n, s):
        p = PhysParams(n, s, 1.3, 1.0)
        c2 = sobolev_constant(p)
        for ratio in (0.3, 0.9, 1.1, 3.0):
            b = bound_state(ratio * c2, p)
            assert b.regime == ("below_c2" if ratio < 1 else "above_c2")
            assert b.eigfn_shift == abs(b.eigenvalue)
            assert b.eigenvalue == pytest.approx(
                _bound_state_by_root(ratio * c2, p), rel=1e-11, abs=1e-13)

    def test_unstable_root_is_a_quadrature_zero(self):
        p = PhysParams(n=2, s=1.5, omega=1.3, sigma=2.5)
        lam = unstable_eigenvalue(p)
        assert abs(oracle_eigen_determinant(lam, p)) < 1e-10
        assert oracle_eigen_determinant(0.9 * lam, p) < 0
        assert oracle_eigen_determinant(1.1 * lam, p) > 0


class TestDiscretizedOracle:
    def test_secular_lowest_matches_semi_analytic(self):
        grid = default_grid(CLASSICAL)
        assert secular_eigenvalues(4.0, CLASSICAL, grid) == pytest.approx(
            -3.0, rel=1e-2)

    def test_lplus_lowest(self):
        minus, plus = lpm_eigenvalues(CLASSICAL)
        # L- has lowest eigenvalue 0 (kernel = wave), L+ has -8 at sigma=1
        assert abs(minus) < 0.05
        assert plus == pytest.approx(-8.0, rel=1e-2)

    @pytest.mark.parametrize("sig", [1.5, 2.0, 3.0])
    def test_oracle_root_near_semi_analytic(self, sig):
        p = PhysParams(n=1, s=1.0, omega=1.0, sigma=sig)
        lam = oracle_unstable_eigenvalue(p, LAMBDA_STAR[sig])
        assert lam == pytest.approx(LAMBDA_STAR[sig], rel=1e-4)

    def test_oracle_without_sign_change_is_inconclusive(self):
        # D > 0 at both ends of a bracket around twice the root
        p = PhysParams(n=1, s=1.0, omega=1.0, sigma=2.0)
        with pytest.raises(RootSearchInconclusive, match="sign"):
            oracle_unstable_eigenvalue(p, 2.0 * LAMBDA_STAR[2.0])

    def test_dense_pencil_agrees_with_characteristic_function(self):
        # the rank-one reduction is exact on the grid: the dense L+ L-
        # pencil and the discrete characteristic function locate the same
        # real eigenvalue
        p = PhysParams(n=1, s=1.0, omega=1.0, sigma=2.0)
        grid = OracleGrid(half_length=15.0, modes=512)
        dense = jl_dense_eigenvalues(p, grid)
        real_pos = sorted(z.real for z in dense
                          if abs(z.imag) < 1e-8 and z.real > 1e-6)
        D = lambda lam: discrete_eigen_determinant(lam, p, grid)
        root = find_root(D, Bracket(1e-6, 20.0), tol=1e-12)
        assert real_pos, "dense pencil found no real unstable eigenvalue"
        assert min(abs(r - root) for r in real_pos) < 1e-6 * root


class TestCoercivity:
    def test_gap_positive_and_shrinks_toward_threshold(self):
        gaps = []
        for sig in (0.5, 0.7, 0.9):
            p = PhysParams(n=1, s=1.0, omega=1.0, sigma=sig)
            gaps.append(coercivity_gap(p))
        assert all(g > 0 for g in gaps)
        assert gaps[0] > gaps[1] > gaps[2]

    def test_not_applicable_when_unstable(self):
        with pytest.raises(NotApplicable):
            coercivity_gap(PhysParams(1, 1.0, 1.0, 2.0))
