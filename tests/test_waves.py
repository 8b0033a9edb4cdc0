import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import hankel1e, kei

from cnls.moments import PhysParams, moment_closed
from cnls.numerics import DomainError
from cnls.waves import (MAX_POINTWISE_S, _hankel0e, _ray_rule, greens_value,
                        pohozaev_check, sobolev_constant,
                        sobolev_constant_printed_check, soliton_profile)

CLASSICAL = PhysParams(n=1, s=1.0, omega=1.0, sigma=1.0)

# G at (n, s, lam, r) to 20 digits, by oscillatory quadrature on the real
# axis, independent of the ray used by greens_value:
#   import mpmath as mp; mp.mp.dps = 20
#   def ref(n, s, lam, r):
#       s, lam, r = mp.mpf(s), mp.mpf(lam), mp.mpf(r)
#       e = {1: lambda k: mp.cos(k * r), 2: lambda k: k * mp.besselj(0, k * r),
#            3: lambda k: k * mp.sin(k * r)}[n]
#       f = lambda k: e(k) / (k ** (2 * s) + lam)
#       if n == 2:
#           i = mp.quadosc(f, [0, mp.inf],
#                          zeros=lambda j: mp.besseljzero(0, int(j)) / r)
#       else:
#           i = mp.quadosc(f, [0, mp.inf], omega=r)
#       return i * {1: 1 / mp.pi, 2: 1 / (2 * mp.pi),
#                   3: 1 / (2 * mp.pi ** 2 * r)}[n]
GREENS_REF = {
    # a pole exactly at angle pi/2
    (3, 3.0, 0.8, 1.5): 0.018093889747704195206,
    # a pole 0.05 rad above pi/2
    (1, 2.9, 0.8, 1.5): 0.23644573331991376951,
    (2, 2.7, 0.8, 1.5): 0.068379580140154913135,
    # poles pi/25.5 apart in angle: the node step must shrink with s
    (3, 25.5, 1.0, 3.0): 0.0058085201632447619989,
}


class TestGreensFunction:
    def test_center_is_first_moment(self):
        for lam in (0.5, 1.0, 3.0):
            p = PhysParams(n=1, s=1.3, omega=1.0, sigma=1.0)
            m1 = moment_closed(1.0, PhysParams(1, 1.3, lam, 1.0))
            assert greens_value(0.0, lam, p) == pytest.approx(m1, rel=1e-13)

    @given(r=st.floats(0.05, 8.0), lam=st.floats(0.2, 5.0))
    @settings(max_examples=25, deadline=None)
    def test_n1_s1_exponential(self, r, lam):
        # inverse transform of 1/((2 pi xi)^2 + lam) is e^{-sqrt(lam) r}/(2 sqrt(lam))
        p = PhysParams(n=1, s=1.0, omega=1.0, sigma=1.0)
        exact = math.exp(-math.sqrt(lam) * r) / (2.0 * math.sqrt(lam))
        assert abs(greens_value(r, lam, p) - exact) < 1e-8 * exact

    @pytest.mark.parametrize("r,lam", [(0.5, 1.0), (2.0, 0.7), (4.0, 2.0)])
    def test_n2_s2_kelvin(self, r, lam):
        # inverse transform of 1/((2 pi xi)^4 + lam) in 2-D is
        # -kei(m r)/(2 pi m^2) with m = lam^{1/4} (Kelvin function)
        p = PhysParams(n=2, s=2.0, omega=1.0, sigma=1.0)
        m = lam ** 0.25
        exact = -kei(m * r) / (2.0 * math.pi * m * m)
        assert abs(greens_value(r, lam, p) - exact) < 1e-10 * abs(exact)

    @pytest.mark.parametrize("r,lam", [(0.5, 1.0), (2.0, 0.7), (4.0, 2.0)])
    def test_n3_s2_damped_yukawa(self, r, lam):
        # 3-D inverse of 1/((2 pi xi)^4 + lam):
        # e^{-mr/sqrt2} sin(mr/sqrt2) / (4 pi r m^2)
        p = PhysParams(n=3, s=2.0, omega=1.0, sigma=1.0)
        m = lam ** 0.25
        arg = m * r / math.sqrt(2.0)
        exact = math.exp(-arg) * math.sin(arg) / (4.0 * math.pi * r * m * m)
        assert abs(greens_value(r, lam, p) - exact) < 1e-10 * abs(exact)

    @pytest.mark.parametrize("n,s,lam,r", sorted(GREENS_REF))
    def test_mpmath_reference(self, n, s, lam, r):
        p = PhysParams(n=n, s=s, omega=1.0, sigma=1.0)
        assert greens_value(r, lam, p) == pytest.approx(
            GREENS_REF[(n, s, lam, r)], rel=1e-12)

    def test_large_radius(self):
        # G is 1e-10 of G(0) here; the snippet above at mp.mp.dps = 30
        p = PhysParams(n=1, s=6.0, omega=1.0, sigma=1.0)
        assert greens_value(30.0, 1000.0, p) == pytest.approx(
            2.98452681434033e-10, rel=1e-9)

    def test_n3_center_continuity(self):
        # at s = 10 far terms on the ray overflow; they must not leave a NaN
        # or a warning
        for s, lam in ((1.8, 0.9), (10.0, 1.0)):
            p = PhysParams(n=3, s=s, omega=1.0, sigma=1.0)
            m1 = moment_closed(1.0, PhysParams(3, s, lam, 1.0))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                near = greens_value(1e-6, lam, p)
            assert abs(near - m1) < 1e-3 * m1

    @pytest.mark.parametrize("s,lam,r,exact", [
        # 30-digit mpmath, the snippet above with the sinc form
        # k^2 sin(kr)/(kr) summed over [0, 1e6] and quadosc beyond
        (1.8, 0.9, 1e-6, 0.089968495163131614893),
        (3.0, 0.95, 1e-3, 0.027214912125399478391),
        (3.0, 0.95, 0.05, 0.027193038131376916984),
    ])
    def test_n3_near_center_digits(self, s, lam, r, exact):
        # G(r) - G(0) is O(r^2) while the ray's terms are O(1): the sum must
        # not leave their rounding, divided by r, in the value
        p = PhysParams(n=3, s=s, omega=1.0, sigma=1.0)
        assert abs(greens_value(r, lam, p) - exact) < 1e-13 * exact

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_extreme_radius_is_zero(self, n):
        # every term has decayed below the float range; none may overflow,
        # nor the n = 3 factor 1/(2 pi^2 r)
        p = PhysParams(n=n, s=1.0 + n, omega=1.0, sigma=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert greens_value(1e308, 1.0, p) == 0.0
            assert greens_value(math.inf, 1.0, p) == 0.0
            assert soliton_profile([0.0, 1e308], p).values[1] == 0.0

    def test_rule_cache_keeps_values(self):
        # the rule depends on (n, s, lam) alone: revisiting a pair after
        # others gives the first value to the bit, and the cache stays
        # bounded; 36 rules cycled through more than the cache holds are
        # each rebuilt on every sweep
        pairs = [(s, lam) for s in (1.3, 2.0, 2.7, 3.4)
                 for lam in (0.5, 1.0, 4.0)]
        radii = (0.3, 2.0)
        first = {}
        for sweep in range(3):
            for s, lam in pairs[sweep:] + pairs[:sweep]:
                for n in (1, 2, 3):
                    p = PhysParams(n=n, s=s + n / 2, omega=1.0, sigma=1.0)
                    got = [greens_value(r, lam, p) for r in radii]
                    assert first.setdefault((n, s, lam), got) == got
        assert len(first) == 36
        info = _ray_rule.cache_info()
        assert info.maxsize < 36 and info.currsize <= info.maxsize

    def test_unsupported_dimension(self):
        p = PhysParams(n=4, s=3.0, omega=1.0, sigma=1.0)
        with pytest.raises(DomainError, match="supports n in"):
            greens_value(1.0, 1.0, p)

    def test_order_above_the_bound_is_rejected_before_any_node(self):
        # the ray rule holds about 80 s nodes and int(s) + 2 pole angles
        s = math.nextafter(MAX_POINTWISE_S, math.inf)
        p = PhysParams(n=1, s=s, omega=1.0, sigma=1.0)
        with pytest.raises(DomainError, match="supports s <="):
            greens_value(1.0, 1.0, p)

    def test_domain(self):
        with pytest.raises(DomainError):
            greens_value(-1.0, 1.0, CLASSICAL)
        with pytest.raises(DomainError):
            greens_value(1.0, -2.0, CLASSICAL)


class TestHankelKernel:
    @pytest.mark.parametrize("theta", [0.05, 0.35, 0.9, 1.45, math.pi / 2])
    def test_against_scipy(self, theta):
        # every regime and both regime edges, on the rays greens_value uses:
        # the node rays lie in [0.35, pi/2], the pole rays below as well
        sizes = np.logspace(-12, 8, 401)
        sizes = np.concatenate([sizes, [2.0 - 1e-12, 2.0, 25.0 - 1e-12, 25.0]])
        want = hankel1e(0, sizes * np.exp(1j * theta))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = np.array([_hankel0e(complex(z)) for z in
                            sizes * np.exp(1j * theta)])
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13


class TestSolitonProfile:
    def test_classical_profile_closed_form(self):
        # phi(x) = sqrt(2) e^{-|x|} at n=1, s=1, omega=1, sigma=1
        r = np.linspace(0.0, 5.0, 21)
        prof = soliton_profile(r, CLASSICAL)
        exact = math.sqrt(2.0) * np.exp(-r)
        assert np.max(np.abs(prof.values - exact)) < 1e-8
        assert prof.center_value == pytest.approx(math.sqrt(2.0), rel=1e-13)

    def test_center_value_general(self):
        # phi(0) = M_1(omega)^{-1/(2 sigma)}
        p = PhysParams(n=2, s=1.4, omega=0.8, sigma=1.5)
        prof = soliton_profile(np.linspace(0.0, 1.0, 3), p)
        m1 = moment_closed(1.0, p)
        assert prof.values[0] == pytest.approx(m1 ** (-1 / (2 * p.sigma)),
                                               rel=1e-10)

    def test_bad_radii(self):
        with pytest.raises(DomainError):
            soliton_profile(np.array([1.0, 2.0]), CLASSICAL)


class TestSobolevConstant:
    def test_classical_value(self):
        assert sobolev_constant(CLASSICAL) == pytest.approx(2.0, abs=1e-12)

    def test_printed_vs_corrected(self):
        corrected, printed = sobolev_constant_printed_check(1, 1.0)
        assert corrected == pytest.approx(2.0, abs=1e-12)
        assert printed == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_corrected_formula_matches_moment(self, n):
        for s in (0.6 * n + 0.1, float(n), 2.0 * n):
            corrected, _ = sobolev_constant_printed_check(n, s)
            p = PhysParams(n=n, s=s, omega=1.0, sigma=1.0)
            assert corrected == pytest.approx(sobolev_constant(p), rel=1e-10)


class TestPohozaev:
    def test_classical_exact(self):
        rep = pohozaev_check(CLASSICAL)
        assert rep.l2_mass == pytest.approx(2.0, abs=1e-12)
        assert rep.homog_seminorm_sq == pytest.approx(2.0, abs=1e-12)

    @given(s=st.floats(0.6, 3.0), om=st.floats(0.2, 5.0),
           sig=st.floats(0.3, 3.0))
    @settings(max_examples=50)
    def test_identities_closed(self, s, om, sig):
        p = PhysParams(n=1, s=s, omega=om, sigma=sig)
        rep = pohozaev_check(p)
        assert rep.residual_mass_identity < 1e-12
        assert rep.residual_seminorm_identity < 1e-12
        assert rep.residual_energy_identity < 1e-12

    @pytest.mark.parametrize("n,s", [(1, 0.7), (2, 1.3), (3, 1.9)])
    def test_identities_quadrature(self, n, s):
        p = PhysParams(n=n, s=s, omega=0.9, sigma=1.2)
        rep = pohozaev_check(p, use_quadrature=True)
        assert rep.residual_mass_identity < 1e-8
        assert rep.residual_seminorm_identity < 1e-8
        assert rep.residual_energy_identity < 1e-8
