import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cnls import moments, spectrum
from cnls.moments import (FourierGrid, PhysParams, discrete_moment,
                          moment_closed)
from cnls.numerics import DomainError, NumericsError, find_root
from cnls.spectrum import (DEGENERACY_TOL, bound_state, classify,
                           coercivity_gap, default_grid,
                           discrete_eigen_determinant, eigen_determinant,
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
        assert bound_state(4.0, CLASSICAL) == pytest.approx(-3.0, abs=1e-12)

    def test_shallow_well(self):
        # mu < c2 = 2
        assert bound_state(1.0, CLASSICAL) == pytest.approx(0.75, abs=1e-12)

    def test_threshold(self):
        assert bound_state(2.0, CLASSICAL) == 0.0

    @pytest.mark.parametrize("ratio, sign", [(0.5, 1), (1.0, 0), (2.0, -1)])
    def test_eigenvalue_is_a_float_signed_by_mu_against_c2(self, ratio, sign):
        # the eigenvalue alone tells the regime: positive below c^2, zero
        # at c^2 and negative above
        p = PhysParams(n=2, s=1.7, omega=1.3, sigma=1.0)
        e = bound_state(ratio * sobolev_constant(p), p)
        assert type(e) is float
        assert (e > 0) - (e < 0) == sign

    def test_rejects_nonpositive_mu(self):
        with pytest.raises(DomainError):
            bound_state(0.0, CLASSICAL)

    def test_overflow_names_the_eigenvalue(self):
        # a = n/(2s) ~ 1 - 7e-5: (mu/c^2)^{1/(1-a)} passes the largest float
        p = PhysParams(n=3, s=1.5001, omega=1.0, sigma=0.99)
        mu_plus = (2 * p.sigma + 1) * sobolev_constant(p)
        with pytest.raises(NumericsError, match=r"L\+ .* mu/c\^2 = 2\.98"):
            bound_state(mu_plus, p)

    @given(mu=st.floats(0.1, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_s1_closed_form(self, mu):
        # at n=1, s=1 both regimes collapse to eigenvalue omega - mu^2/4
        # (M_1(lam) = 1/(2 sqrt(lam)))
        assert bound_state(mu, CLASSICAL) == pytest.approx(
            1.0 - mu * mu / 4.0, abs=1e-10)


EPS = 2.0 ** -52


def _q_reference(params):
    """Q = M_3 - ((2 sigma + 1)/(2 sigma)) M_2^2/M_1 from 50-digit Beta
    moments at the exact float parameters."""
    with mpmath.workdps(50):
        n, s, om, sig = (mpmath.mpf(x) for x in params)
        a = n / (2 * s)
        pref = (2 * mpmath.pi ** (n / 2) / mpmath.gamma(n / 2)
                / ((2 * mpmath.pi) ** n * 2 * s))
        m1, m2, m3 = (pref * om ** (a - j) * mpmath.beta(a, j - a)
                      for j in (1, 2, 3))
        return float(m3 - (2 * sig + 1) / (2 * sig) * m2 * m2 / m1)


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
        if abs(sig - crit) <= DEGENERACY_TOL:
            return
        q = vk_quantity(p)
        assert (q > 0) == (sig > crit)

    @given(n=st.integers(1, 3), s_rel=st.floats(0.55, 3.0),
           log_gap=st.floats(-10.0, math.log10(3.0)), above=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_matches_50_digit_reference(self, n, s_rel, log_gap, above):
        # the relative error of Q is a few roundings, plus the rounding of
        # sigma* = 2s/n - 1 (at most about eps 2s/n) over sigma - sigma*
        s = s_rel * n
        crit = 2.0 * s / n - 1.0
        gap = 10.0 ** log_gap
        sig = crit + gap if above else crit - gap
        assume(sig > 0)
        p = PhysParams(n=n, s=s, omega=1.0, sigma=sig)
        ref = _q_reference(p)
        budget = 8 * EPS * (1.0 + (2.0 * s / n) / abs(sig - crit))
        assert abs(vk_quantity(p) - ref) <= budget * abs(ref)

    @pytest.mark.parametrize("n, s", [(1, 1.0), (1, 0.8), (2, 1.7),
                                      (3, 2.2)])
    def test_no_cancellation_near_threshold(self, n, s):
        # sigma* is exact at these four cells, so only Q's own roundings
        # remain (the three-moment difference loses up to 4.5e-7 here)
        for gap in (1e-2, 1e-5, 1e-8):
            p = PhysParams(n=n, s=s, omega=1.0, sigma=2.0 * s / n - 1.0 + gap)
            ref = _q_reference(p)
            assert abs(vk_quantity(p) - ref) <= 1e-15 * abs(ref)

    def test_classify_reads_at_most_three_moments(self, monkeypatch):
        # c^2, the L+ bound state and Q each need M_1 once, and nothing else
        calls = []
        counted = lambda j, params: calls.append(j) or moment_closed(j, params)
        monkeypatch.setattr(moments, "moment_closed", counted)
        monkeypatch.setattr(spectrum, "moment_closed", counted)
        classify(PhysParams(2, 1.7, 1.3, 0.9))
        assert 0 < len(calls) <= 3

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

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("sig", [2.0, 1e2, 1e4, 1e8, 1e50, 1e150])
    def test_exact_root_at_s_equal_n(self, n, sig):
        # at s = n (a = 1/2) D = 0 reduces, with r = |1 - i lam/omega|, to
        # (b + r)^2 = (b + 1)^2 (r + 1)/2, b = 2 sigma + 1, whose root
        # r = 2 sigma^2 - 1 is lam* = 2 omega sigma sqrt(sigma^2 - 1).  At
        # the root Re w ~ 1/b, so b Re w - 1 must not be formed as
        # b (Re w - 1) + b - 1.
        for om in (0.2, 1.0, 5.0):
            exact = 2.0 * om * sig * math.sqrt((sig - 1.0) * (sig + 1.0))
            lam = unstable_eigenvalue(PhysParams(n=n, s=float(n), omega=om,
                                                 sigma=sig))
            assert abs(lam - exact) <= 1e-12 * om + 1e-13 * exact

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
        with pytest.raises(NumericsError, match="D stays negative up to "
                                                "the largest float"):
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
        return find_root(f, 0.0, om * (1 - 1e-15), tol=1e-14)
    lo = -om
    while f(lo) > 0:
        lo *= 2.0
    return find_root(f, lo, 0.0, tol=1e-14)


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
            assert bound_state(ratio * c2, p) == pytest.approx(
                _bound_state_by_root(ratio * c2, p), rel=1e-11, abs=1e-13)

    def test_unstable_root_is_a_quadrature_zero(self):
        p = PhysParams(n=2, s=1.5, omega=1.3, sigma=2.5)
        lam = unstable_eigenvalue(p)
        assert abs(oracle_eigen_determinant(lam, p)) < 1e-10
        assert oracle_eigen_determinant(0.9 * lam, p) < 0
        assert oracle_eigen_determinant(1.1 * lam, p) > 0


def _jl_dense_eigenvalues(params, grid):
    """Spectrum of the discretized JL operator via the quadratic pencil
    lam^2 v = -(L_+ L_-) v, assembled densely (modest mode counts only)."""
    d = grid.symbol(params.s) + params.omega
    w2 = 1.0 / (2.0 * grid.half_length)
    c2 = sobolev_constant(params)
    a, b = c2, (2 * params.sigma + 1) * c2
    ones = np.ones_like(d)
    lm = np.diag(d) - a * w2 * np.outer(ones, ones)
    lp = np.diag(d) - b * w2 * np.outer(ones, ones)
    sq = np.linalg.eigvals(lp @ lm)
    return np.emath.sqrt(-sq)


class TestDiscretizedOracle:
    def test_secular_lowest_matches_semi_analytic(self):
        grid = default_grid(CLASSICAL)
        assert secular_eigenvalues(4.0, CLASSICAL, grid) == pytest.approx(
            -3.0, rel=1e-2)

    def test_lplus_lowest(self):
        grid = default_grid(CLASSICAL)
        c2 = sobolev_constant(CLASSICAL)
        minus = secular_eigenvalues(c2, CLASSICAL, grid)
        plus = secular_eigenvalues(3.0 * c2, CLASSICAL, grid)
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
        with pytest.raises(NumericsError, match="does not change sign"):
            oracle_unstable_eigenvalue(p, 2.0 * LAMBDA_STAR[2.0])

    def test_dense_pencil_agrees_with_characteristic_function(self):
        # the rank-one reduction is exact on the grid: the dense L+ L-
        # pencil and the discrete characteristic function locate the same
        # real eigenvalue
        p = PhysParams(n=1, s=1.0, omega=1.0, sigma=2.0)
        grid = FourierGrid(half_length=15.0, modes=512)
        dense = _jl_dense_eigenvalues(p, grid)
        real_pos = sorted(z.real for z in dense
                          if abs(z.imag) < 1e-8 and z.real > 1e-6)
        # the dense pencil reads every mode, D the half spectrum k <= M/2
        d = grid.half_symbol(p.s) + p.omega
        D = lambda lam: discrete_eigen_determinant(lam, p, d, grid)
        root = find_root(D, 1e-6, 20.0, tol=1e-12)
        assert real_pos, "dense pencil found no real unstable eigenvalue"
        assert min(abs(r - root) for r in real_pos) < 1e-6 * root

    @pytest.mark.parametrize("modes", [2, 8, 512, 4096])
    @pytest.mark.parametrize("s", [0.6, 1.0, 2.5])
    def test_half_spectrum_d_equals_full_spectrum_d(self, modes, s):
        # the characteristic function from sums over all M modes of the
        # FFT-order symbol, as the oracle summed them before; the two D
        # agree to 1e-13 of the size of their terms
        p = PhysParams(n=1, s=s, omega=0.7, sigma=2.0)
        grid = FourierGrid(half_length=7.5, modes=modes)
        d_full = grid.symbol(s) + p.omega
        d_half = grid.half_symbol(s) + p.omega
        c2 = sobolev_constant(p)
        a, b = c2, (2 * p.sigma + 1) * c2
        for lam in (1e-3, 0.5, 3.0, 40.0):
            denom = d_full * d_full + lam * lam
            x = float(np.sum(d_full / denom)) / (2.0 * grid.half_length)
            y = lam * float(np.sum(1.0 / denom)) / (2.0 * grid.half_length)
            full = (a * x - 1.0) * (b * x - 1.0) + a * b * y * y
            scale = (a * x + 1.0) * (b * x + 1.0) + a * b * y * y
            half = discrete_eigen_determinant(lam, p, d_half, grid)
            assert abs(half - full) <= 1e-13 * scale

    def test_oracle_holds_no_full_spectrum_array(self):
        # at 2^22 modes the half diagonal is 2^21 + 1 doubles; the oracle
        # holds at most three such arrays at a time, never one of 2^22
        p = PhysParams(n=1, s=1.0, omega=1.0, sigma=2.0)
        near = unstable_eigenvalue(p)
        tracemalloc.start()
        try:
            oracle_unstable_eigenvalue(p, near)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * ((1 << 21) + 1) * 8


class TestCoercivity:
    def test_gap_positive_and_shrinks_toward_threshold(self):
        gaps = []
        for sig in (0.5, 0.7, 0.9):
            p = PhysParams(n=1, s=1.0, omega=1.0, sigma=sig)
            gaps.append(coercivity_gap(p))
        assert all(g > 0 for g in gaps)
        assert gaps[0] > gaps[1] > gaps[2]

    def test_not_applicable_when_unstable(self):
        # unstable, then two degenerate cells, where sigma = sigma* exactly
        s = 0.556140350877193
        for p in (PhysParams(1, 1.0, 1.0, 2.0),
                  PhysParams(1, s, 1.0, 2 * s - 1),
                  PhysParams(1, 1.0, 1.0, 1.0)):
            with pytest.raises(DomainError, match="coercivity gap requires "
                                                  "the stable regime"):
                coercivity_gap(p)

    def test_closed_form_matches_dense_oracle(self):
        # min of <L+ v, v> / <diag(d) v, v> over v perpendicular to 1/d,
        # by an orthonormal basis of that complement, the Cholesky factor
        # of the energy-norm Gram matrix and a symmetric eigensolve
        p = PhysParams(n=1, s=1.0, omega=1.0, sigma=0.5)
        grid = FourierGrid(half_length=15.0, modes=1024)
        d = grid.symbol(p.s) + p.omega
        b = (2 * p.sigma + 1) * sobolev_constant(p)
        lp = np.diag(d) - b / (2.0 * grid.half_length)
        q, _ = np.linalg.qr((1.0 / d)[:, None], mode="complete")
        q = q[:, 1:]
        chol = np.linalg.cholesky(q.T @ (d[:, None] * q))
        half = np.linalg.solve(chol, q.T @ lp @ q)
        whitened = np.linalg.solve(chol, half.T)
        dense = np.linalg.eigvalsh(0.5 * (whitened + whitened.T))[0]
        assert coercivity_gap(p) == pytest.approx(dense, abs=1e-13)

    @pytest.mark.parametrize("sig,dense", [(0.5, 0.3452056551197434),
                                           (0.7, 0.214246786143657),
                                           (0.9, 0.08328791716759101)])
    def test_matches_dense_generalized_eigensolve(self, sig, dense):
        # values of the dense generalized eigensolve in the H^s norm,
        # which is the energy norm at omega = 1
        p = PhysParams(n=1, s=1.0, omega=1.0, sigma=sig)
        assert coercivity_gap(p) == pytest.approx(dense, abs=1e-12)

    def test_converges_to_closed_kappa(self):
        # kappa_M = 1 - b (S_1 - S_2^2/S_3), coercivity_gap's formula, on
        # finer grids of the same L = 15 tends to the closed
        # kappa = 2a (sigma* - sigma)/(2 - a): 1/3 at a = 1/2, sigma* = 1,
        # sigma = 1/2
        p = PhysParams(n=1, s=1.0, omega=1.0, sigma=0.5)
        kappa = 2 * p.a * (sigma_critical(p) - p.sigma) / (2 - p.a)
        assert kappa == pytest.approx(1.0 / 3.0, rel=1e-15)
        b = (2 * p.sigma + 1) * sobolev_constant(p)
        errors = []
        for modes, want in ((1 << 10, 0.34521), (1 << 14, 0.33408),
                            (1 << 18, 0.33338)):
            grid = FourierGrid(half_length=15.0, modes=modes)
            d = grid.half_symbol(p.s) + p.omega
            s1, s2, s3 = (discrete_moment(j, d, grid) for j in (1, 2, 3))
            kappa_m = 1.0 - b * (s1 - s2 * s2 / s3)
            if modes == 1 << 10:
                assert coercivity_gap(p) == kappa_m
            assert kappa_m == pytest.approx(want, abs=5e-6)
            errors.append(abs(kappa_m - kappa))
        assert errors[0] > errors[1] > errors[2]

    @pytest.mark.parametrize("omega", [0.5, 2.0])
    def test_energy_norm_gap_does_not_depend_on_omega(self, omega):
        at_one = coercivity_gap(PhysParams(1, 1.0, 1.0, 0.5))
        assert coercivity_gap(PhysParams(1, 1.0, omega, 0.5)) == \
            pytest.approx(at_one, abs=1e-12)
