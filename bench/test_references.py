"""Each reference of the benchmark against a value known in closed form.

    python -m pytest bench
"""

import math

import numpy as np
import pytest
from scipy import integrate, special

import references as ref


def test_moments_at_the_classical_point():
    got = [ref.moment(j, 1, 1.0, 1.0) for j in (1.0, 2.0, 3.0)]
    assert got == pytest.approx([0.5, 0.25, 3.0 / 16.0], rel=1e-15)


@pytest.mark.parametrize("n,s,j,omega", [(2, 1.5, 2.0, 0.7), (3, 2.5, 1.0, 1.3)])
def test_moment_matches_radial_quadrature(n, s, j, omega):
    area = 2.0 * math.pi ** (n / 2) / math.gamma(n / 2)
    radial, _ = integrate.quad(
        lambda rho: rho ** (n - 1) / ((2 * math.pi * rho) ** (2 * s) + omega) ** j,
        0.0, np.inf, epsabs=0.0, epsrel=1e-12, limit=200)
    assert ref.moment(j, n, s, omega) == pytest.approx(area * radial, rel=1e-10)


def test_elementary_d_root_is_four_root_three():
    assert ref.unstable_root(1, 1.0, 1.0, 2.0) == pytest.approx(4 * math.sqrt(3), rel=1e-13)
    # D depends on lambda/omega only
    assert ref.unstable_root(1, 1.0, 2.5, 2.0) == pytest.approx(10 * math.sqrt(3), rel=1e-13)


def test_elementary_d_keeps_its_sign_on_stable_cells():
    for n, s, sigma in ((1, 1.0, 0.5), (2, 2.0, 0.8), (3, 3.0, 0.9)):
        assert sigma < ref.sigma_star(n, s)
        assert ref.vk_quantity(n, s, 1.0, sigma) < 0
        assert ref.d_sign_changes(n, s, 1.0, sigma) == []
        assert ref.unstable_root(n, s, 1.0, sigma) is None


def test_vk_quantity_exact_fractions():
    # Q at n = s = omega = 1: sigma = 2 gives 1/32, sigma = 1/2 gives -1/16
    assert ref.vk_quantity(1, 1.0, 1.0, 2.0) == pytest.approx(1 / 32, abs=1e-15)
    assert ref.vk_quantity(1, 1.0, 1.0, 0.5) == pytest.approx(-1 / 16, abs=1e-15)


def test_bound_state_of_the_classical_delta_well():
    assert ref.bound_state(4.0, 1, 1.0, 1.0) == pytest.approx(-3.0, rel=1e-14)
    # omega - mu^2/4 for the 1-D Laplacian with a delta well
    assert ref.bound_state(1.5, 1, 1.0, 2.0) == pytest.approx(2.0 - 1.5 ** 2 / 4, rel=1e-14)


@pytest.mark.parametrize("r", [1e-3, 0.05, 0.7, 3.0, 9.0])
def test_greens_n1_is_the_exponential(r):
    lam = 1.7
    want = math.exp(-math.sqrt(lam) * r) / (2 * math.sqrt(lam))
    assert abs(ref.greens(r, lam, 1, 1.0) - want) < 1e-12 * ref.greens(0.0, lam, 1, 1.0)


@pytest.mark.parametrize("r", [1e-3, 0.05, 0.7, 3.0, 9.0])
def test_greens_n3_s2_closed_form(r):
    lam = 0.8
    a = lam ** 0.25
    want = (math.exp(-a * r / math.sqrt(2)) * math.sin(a * r / math.sqrt(2))
            / (4 * math.pi * a * a * r))
    assert abs(ref.greens(r, lam, 3, 2.0) - want) < 1e-12 * ref.greens(0.0, lam, 3, 2.0)


@pytest.mark.parametrize("r", [0.5, 2.0])
def test_greens_n2_kelvin_matches_the_hankel_integral(r):
    lam = 1.3
    hankel, _ = integrate.quad(lambda k: k * special.j0(k * r) / (k ** 4 + lam),
                               0.0, 400.0, limit=4000, epsabs=1e-14)
    assert ref.greens(r, lam, 2, 2.0) == pytest.approx(hankel / (2 * math.pi), abs=1e-7)
    # kei(0) = -pi/4 gives G(0) = M_1
    assert -special.kei(0.0) / (2 * math.pi * math.sqrt(lam)) == pytest.approx(
        ref.moment(1.0, 2, 2.0, lam), rel=1e-14)


def test_split_step_holds_the_discrete_wave_to_second_order():
    def drift(dt):
        stepper = ref.SplitStep(s=1.0, omega=1.0, sigma=0.5, half_length=40.0,
                                modes=1024, dt=dt)
        u0 = stepper.initial(0.0, "greens-bump", 0)
        # the continuum wave has phi(0) = M_1^{-1/(2 sigma)} = 2
        assert abs(u0[stepper.centre]) == pytest.approx(2.0, rel=0.02)
        steps = int(round(0.05 / dt))
        centre = stepper.centre_moduli(u0, steps, steps // 5)
        assert centre.shape == (6,)
        return np.max(np.abs(centre - centre[0])) / centre[0]

    coarse, fine = drift(2e-4), drift(1e-4)
    assert coarse < 1e-4
    assert 3.0 < coarse / fine < 5.0


def test_split_step_perturbation_has_the_requested_size():
    stepper = ref.SplitStep(s=1.0, omega=1.0, sigma=2.0, half_length=40.0,
                            modes=256, dt=1e-3)
    phi = stepper.wave()
    for shape in ("greens-bump", "noise"):
        u0 = stepper.initial(1e-3, shape, 5)
        assert stepper.hs_norm(u0 - phi) == pytest.approx(1e-3 * stepper.hs_norm(phi), rel=1e-12)
