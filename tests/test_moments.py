import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import numpy as np

from cnls.moments import (FourierGrid, PhysParams, discrete_moment, grid_sum,
                          moment_closed, moment_printed, moment_quadrature,
                          sphere_area)
from cnls.numerics import DomainError, NumericsError
from cnls.verify import MOMENT_RTOL

CLASSICAL = PhysParams(n=1, s=1.0, omega=1.0, sigma=1.0)


class TestExactValues:
    def test_classical_triple(self):
        # arctan / partial-fraction values for 1/((2 pi xi)^2 + 1)^j
        assert abs(moment_closed(1.0, CLASSICAL) - 0.5) < 1e-14
        assert abs(moment_closed(2.0, CLASSICAL) - 0.25) < 1e-14
        assert abs(moment_closed(3.0, CLASSICAL) - 3.0 / 16.0) < 1e-14

    def test_printed_variant_is_2s_larger(self):
        # the documentation fixture keeps the uncorrected value
        for j in (1, 2, 3):
            assert abs(moment_printed(j, CLASSICAL)
                       - 2.0 * moment_closed(float(j), CLASSICAL)) < 1e-14


def _moment_reference(j, params):
    """M_j from the Beta identity in 40-digit arithmetic at the exact float
    parameters."""
    with mpmath.workdps(40):
        n, s, om = (mpmath.mpf(x) for x in params[:3])
        a = n / (2 * s)
        return float(2 * mpmath.pi ** (n / 2) / mpmath.gamma(n / 2)
                     / ((2 * mpmath.pi) ** n * 2 * s)
                     * om ** (a - j) * mpmath.beta(a, j - a))


class TestNearTheEmbeddingEdge:
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("j", [1.0, 2.0, 3.0])
    def test_closed_form_keeps_its_digits(self, n, j):
        # as s -> n/2, 1 - a formed from the rounded a = n/(2s) is off by
        # about 1e-16/(1 - a) relative (1.6e-10 in M_1 here at n = 1), and
        # log Gamma(1 - a) ~ -log(1 - a) rounds at its own size
        p = PhysParams(n=n, s=0.5 * n * (1.0 + 1e-7), omega=1.0, sigma=1.0)
        ref = _moment_reference(j, p)
        assert abs(moment_closed(j, p) - ref) <= 8 * 2.0 ** -52 * ref


class TestPastTheGammaOverflow:
    # from n = 344 on, Gamma(n/2) overflows, and M_j is the exp of a sum of
    # logs, each rounded at its own size: the budget is one ulp per unit
    # of their summed magnitudes (1839 and 2071 ulps here)
    @pytest.mark.parametrize("n, s, m1", [(344, 1e4, 2.80e-206),
                                          (400, 1e5, 4.58e-296)])
    def test_log_form_within_its_budget(self, n, s, m1):
        om = 1e-300
        p = PhysParams(n=n, s=s, omega=om, sigma=1.0)
        a = p.a
        logs = (math.log(s), 0.5 * n * math.log(4.0 * math.pi),
                math.lgamma(0.5 * n), (1.0 - a) * math.log(om),
                math.lgamma(a), math.lgamma(1.0 - a))
        budget = 2.0 ** -52 * sum(abs(x) for x in logs)
        ref = _moment_reference(1.0, p)
        assert ref == pytest.approx(m1, rel=1e-2)
        assert abs(moment_closed(1.0, p) - ref) <= budget * ref

    def test_sphere_area_in_log_space(self):
        with mpmath.workdps(40):
            ref = float(2 * mpmath.pi ** 172 / mpmath.gamma(172))
        assert ref == pytest.approx(5.21e-224, rel=1e-3)
        budget = 2.0 ** -52 * (math.log(2.0) + 172 * math.log(math.pi)
                               + math.lgamma(172))
        assert abs(sphere_area(344) - ref) <= budget * ref
        # the direct form stands up to n = 343
        assert sphere_area(343) == (2.0 * math.pi ** 171.5
                                    / math.exp(math.lgamma(171.5)))
        with pytest.raises(NumericsError, match=r"\|S\^\(n-1\)\| leaves the "
                                                "float range: n = 1300"):
            sphere_area(1300)


class TestQuadratureOracle:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("j", [1.0, 2.0, 3.0])
    def test_closed_matches_quadrature(self, n, j):
        for s in (0.6 * n, 2.0 * n):
            p = PhysParams(n=n, s=s, omega=0.7, sigma=1.0)
            closed = moment_closed(j, p)
            quad = moment_quadrature(j, p)
            assert abs(closed - quad) < 1e-10 * abs(closed)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("frac", [0.002, 0.01, 0.03])
    def test_quadrature_near_the_embedding_edge(self, n, frac):
        # s = n/2 + frac n: at j = 1 the integrand decays like rho^{-1-2 frac n},
        # too slowly for the exp-sinh window unless its tail is subtracted
        for j in (1.0, 2.0, 3.0):
            for om in (0.5, 2.0):
                p = PhysParams(n=n, s=n / 2 + frac * n, omega=om, sigma=1.0)
                closed = moment_closed(j, p)
                quad = moment_quadrature(j, p)
                assert abs(closed - quad) < MOMENT_RTOL * abs(closed)

    def test_quadrature_method_tag(self):
        assert abs(moment_quadrature(1.0, CLASSICAL) - 0.5) < 1e-10

    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_discrete_moment_converges_to_closed(self, j):
        # the grid sum S_j approaches M_j as the modes fill in the line
        def rel_err(modes):
            grid = FourierGrid(half_length=60.0, modes=modes)
            d = grid.half_symbol(CLASSICAL.s) + CLASSICAL.omega
            exact = moment_closed(float(j), CLASSICAL)
            return abs(discrete_moment(j, d, grid) - exact) / exact
        assert rel_err(1 << 18) <= rel_err(1 << 10) / 100.0


class TestHalfSpectrum:
    # every grid sum runs over k = 0..M/2 of the even symbol; the sums over
    # all M modes of the full FFT-order symbol are their oracle
    @pytest.mark.parametrize("modes", [2, 8, 512, 4096])
    @pytest.mark.parametrize("s", [0.6, 1.0, 2.5])
    def test_half_symbol_is_the_symbol_on_k_up_to_m_over_2(self, modes, s):
        grid = FourierGrid(half_length=7.5, modes=modes)
        full = grid.symbol(s)
        half = grid.half_symbol(s)
        assert np.array_equal(half, full[:modes // 2 + 1])
        # each value but k = 0 and k = M/2 appears twice in the full symbol
        assert np.array_equal(np.sort(full),
                              np.sort(np.concatenate([half, half[1:-1]])))

    @pytest.mark.parametrize("modes", [2, 8, 512, 4096])
    @pytest.mark.parametrize("s", [0.6, 1.0, 2.5])
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_discrete_moment_equals_full_spectrum_sum(self, modes, s, j):
        p = PhysParams(n=1, s=s, omega=0.7, sigma=1.0)
        grid = FourierGrid(half_length=7.5, modes=modes)
        full = float(np.sum(1.0 / (grid.symbol(s) + p.omega) ** j)) \
            / (2.0 * grid.half_length)
        half = discrete_moment(j, grid.half_symbol(s) + p.omega, grid)
        assert half == pytest.approx(full, rel=1e-13, abs=0.0)

    def test_full_spectrum_array_is_rejected(self):
        # a full FFT-order diagonal would be summed with the wrong weights
        grid = FourierGrid(half_length=7.5, modes=8)
        with pytest.raises(DomainError, match="half-spectrum"):
            discrete_moment(1, grid.symbol(1.0) + 1.0, grid)
        with pytest.raises(DomainError, match="half-spectrum"):
            grid_sum(np.ones(4), grid)

    @pytest.mark.parametrize("modes", [0, 1, 7])
    def test_grid_needs_an_even_mode_count(self, modes):
        with pytest.raises(DomainError):
            FourierGrid(half_length=1.0, modes=modes)


class TestScalingAndMonotonicity:
    @given(om=st.floats(0.05, 50.0), j=st.floats(1.0, 3.0),
           s=st.floats(0.6, 3.0))
    @settings(max_examples=50)
    def test_omega_scaling(self, om, j, s):
        # M_j(omega) = omega^{a - j} M_j(1) with a = n/(2s)
        p1 = PhysParams(n=1, s=s, omega=1.0, sigma=1.0)
        pw = PhysParams(n=1, s=s, omega=om, sigma=1.0)
        scaled = om ** (p1.a - j) * moment_closed(j, p1)
        assert abs(moment_closed(j, pw) - scaled) < 1e-11 * abs(scaled)

    @given(om=st.floats(0.1, 10.0))
    @settings(max_examples=25)
    def test_decreasing_in_omega(self, om):
        p_lo = PhysParams(n=1, s=1.0, omega=om, sigma=1.0)
        p_hi = PhysParams(n=1, s=1.0, omega=om * 1.5, sigma=1.0)
        for j in (1.0, 2.0, 3.0):
            assert moment_closed(j, p_hi) < moment_closed(j, p_lo)

    def test_sphere_areas(self):
        import math
        assert sphere_area(1) == pytest.approx(2.0)
        assert sphere_area(2) == pytest.approx(2 * math.pi)
        assert sphere_area(3) == pytest.approx(4 * math.pi)


class TestValidation:
    def test_embedding_constraint(self):
        with pytest.raises(DomainError):
            PhysParams(n=1, s=0.5, omega=1.0, sigma=1.0)
        with pytest.raises(DomainError):
            PhysParams(n=2, s=0.9, omega=1.0, sigma=1.0)

    def test_positive_omega_sigma(self):
        with pytest.raises(DomainError):
            PhysParams(n=1, s=1.0, omega=-1.0, sigma=1.0)
        with pytest.raises(DomainError):
            PhysParams(n=1, s=1.0, omega=1.0, sigma=0.0)

    @pytest.mark.parametrize("field", ["n", "s", "omega", "sigma"])
    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_rejected(self, field, bad):
        kw = dict(n=1, s=1.0, omega=1.0, sigma=1.0)
        kw[field] = bad
        with pytest.raises(DomainError, match="finite"):
            PhysParams(**kw)

    def test_moment_needs_j_above_a(self):
        # integral diverges unless j > n/(2s)
        p = PhysParams(n=1, s=0.6, omega=1.0, sigma=1.0)
        with pytest.raises(DomainError):
            moment_closed(0.5, p)
