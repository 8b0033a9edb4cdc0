import math

import pytest
from hypothesis import given, settings, strategies as st

from cnls.moments import (PhysParams, moment_closed, moment_printed,
                          moment_quadrature, sphere_area)
from cnls.numerics import DomainError

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


class TestQuadratureOracle:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("j", [1.0, 2.0, 3.0])
    def test_closed_matches_quadrature(self, n, j):
        for s in (0.6 * n, 2.0 * n):
            p = PhysParams(n=n, s=s, omega=0.7, sigma=1.0)
            closed = moment_closed(j, p)
            quad = moment_quadrature(j, p)
            assert abs(closed - quad) < 1e-10 * abs(closed)

    def test_quadrature_method_tag(self):
        assert abs(moment_quadrature(1.0, CLASSICAL) - 0.5) < 1e-10


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
