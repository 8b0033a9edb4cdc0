"""Green's function of (-Delta)^s + lambda, the explicit solitary-wave
profile, the sharp Sobolev embedding constant, and the Pohozaev identity
checker.

Pointwise profile values are radial inverse Fourier transforms (n = 1, 2, 3),
integrated on a ray in the upper half plane where the integrand decays
without oscillating, plus the residues of the poles the ray passes; every
norm identity is evaluated in Fourier variables through the moments, so
those work in any dimension.  The norm identities need only `math`; numpy
loads on the first pointwise evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .moments import PhysParams, moment_closed, moment_quadrature
from .numerics import (DomainError, UnsupportedDimension, expsinh_nodes,
                       ln_gamma)

if TYPE_CHECKING:
    import numpy as np

# Green's function quadrature: exp-sinh nodes (numerics.expsinh_nodes) on
# |t| <= NODE_T_MAX with step at most NODE_STEP, on a ray at an angle chosen
# by _ray_angle from these settings.
NODE_T_MAX = 5.0
NODE_STEP = 1.0 / 32.0
RAY_MIN_ANGLE = 0.35
RAY_ANGLES = 128
POLE_CLEARANCE = 0.25


@dataclass(frozen=True)
class RadialProfile:
    params: PhysParams
    radii: np.ndarray
    values: np.ndarray
    center_value: float


@dataclass(frozen=True)
class PohozaevReport:
    l2_mass: float
    homog_seminorm_sq: float
    center_pow: float
    residual_mass_identity: float
    residual_seminorm_identity: float
    residual_energy_identity: float


def sobolev_constant(params: PhysParams) -> float:
    """Sharp constant c^2(omega) of the H^s -> L^inf embedding: 1/M_1(omega)."""
    return 1.0 / moment_closed(1.0, params)


def sobolev_constant_printed_check(n: int, s: float):
    """(corrected, printed) values of the sharp Sobolev constant at omega=1.

    The printed display misses the substitution Jacobian; the corrected
    value is 2s times it and equals 1/M_1(1).
    """
    if not s > n / 2:
        raise DomainError(f"requires s > n/2, got s={s}, n={n}")
    printed = (2.0 ** (n - 1) * math.pi ** (n / 2.0 - 1.0)
               * math.exp(ln_gamma(n / 2.0)) * math.sin(n * math.pi / (2 * s)))
    return 2.0 * s * printed, printed


def _m1(n: int, s: float, lam: float) -> float:
    return moment_closed(1.0, PhysParams(n=n, s=s, omega=lam, sigma=1.0))


def _ray_angle(alpha: np.ndarray) -> float:
    """The largest of RAY_ANGLES angles in [RAY_MIN_ANGLE, pi/2] that keeps
    POLE_CLEARANCE, or the best clearance any of them reaches, from every
    pole angle alpha.  The largest such angle, not the one farthest from the
    poles: |e^{ikr}| = e^{-|k| r sin theta} on the ray, so the integrand
    decays fastest near pi/2."""
    import numpy as np
    theta = np.linspace(RAY_MIN_ANGLE, 0.5 * math.pi, RAY_ANGLES)
    dist = np.min(np.abs(theta[:, None] - alpha[None, :]), axis=1)
    return float(np.max(theta[dist >= min(POLE_CLEARANCE, np.max(dist))]))


def greens_value(r: float, lam: float, params: PhysParams) -> float:
    """G_s^lam(r): radial inverse Fourier transform of 1/((2pi rho)^{2s}+lam).

    With k = 2 pi rho, G = c Re (n = 1, 2) or c Im (n = 3) of
    I = int_0^inf k^m E(kr) / (k^{2s} + lam) dk, where
      n = 1: m = 0, E = e^{iz},    c = 1/pi;
      n = 2: m = 1, E = H0^(1)(z), c = 1/(2 pi);
      n = 3: m = 1, E = e^{iz},    c = 1/(2 pi^2 r)
    (at n = 3 the sphere factor cancels one power of k against the sinc).
    E decays in the upper half plane, so the path turns onto the ray
    k = kappa y e^{i theta}, kappa = lam^{1/(2s)}, where the integrand
    decays without oscillating; it is summed on exp-sinh nodes.  Each pole
    k_j = kappa e^{i alpha_j}, alpha_j = pi (2j+1)/(2s), that the turn
    sweeps (alpha_j < theta) adds 2 pi i Res_j, with
    Res_j = -k_j^{m+1} E(k_j r) / (2 s lam).
    """
    import numpy as np
    n, s = params.n, params.s
    if n not in (1, 2, 3):
        raise UnsupportedDimension(
            f"pointwise evaluation supports n in {{1,2,3}}, got n={n}")
    if r < 0 or lam <= 0:
        raise DomainError("requires r >= 0 and lam > 0")
    if r == 0.0:
        return _m1(n, s, lam)

    m = 0 if n == 1 else 1
    if n == 2:
        # imported here, not at module level: scipy.special takes longer to
        # import than most commands take to run, and only n = 2 needs it
        from scipy.special import hankel1e

        # hankel1e(0, z) = H0^(1)(z) e^{-iz} stays finite where e^{iz}
        # underflows
        kernel = lambda z: hankel1e(0, z) * np.exp(1j * z)
    else:
        kernel = lambda z: np.exp(1j * z)
    kappa = lam ** (1.0 / (2.0 * s))
    alpha = math.pi * (2.0 * np.arange(int(s) + 2) + 1.0) / (2.0 * s)
    theta = _ray_angle(alpha)

    # the poles lie pi/s apart in angle, so the step shrinks at large s
    y, w = expsinh_nodes(min(NODE_STEP, 1.0 / (8.0 * s)), NODE_T_MAX)
    turn = kappa * np.exp(1j * theta)
    k = turn * y
    # far out on the ray k^{2s} can overflow and hankel1e returns NaN past
    # |z| ~ 1e14; the exact term there is below the float range, so a
    # non-finite term contributes 0
    with np.errstate(over="ignore", invalid="ignore"):
        f = k ** m * kernel(k * r) / (k ** (2.0 * s) + lam)
    f = np.where(np.isfinite(f), f, 0.0)
    total = turn * np.sum(f * w)

    k_pole = kappa * np.exp(1j * alpha[alpha < theta])
    total += 2j * math.pi * np.sum(
        -k_pole ** (m + 1) * kernel(k_pole * r) / (2.0 * s * lam))

    if n == 1:
        return float(total.real) / math.pi
    if n == 2:
        return float(total.real) / (2.0 * math.pi)
    return float(total.imag) / (2.0 * math.pi ** 2 * r)


def soliton_profile(radii, params: PhysParams) -> RadialProfile:
    """Solitary-wave profile phi(r) = G_s^omega(r) / M_1(omega)^{1+1/(2 sigma)}."""
    import numpy as np
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii.size < 2 or radii[0] != 0.0:
        raise DomainError("radii must be a 1-d ascending grid starting at 0")
    m1 = moment_closed(1.0, params)
    norm = m1 ** (1.0 + 1.0 / (2.0 * params.sigma))
    values = np.array([greens_value(r, params.omega, params) for r in radii])
    values /= norm
    return RadialProfile(params=params, radii=radii, values=values,
                         center_value=m1 ** (-1.0 / (2.0 * params.sigma)))


def pohozaev_check(params: PhysParams, use_quadrature: bool = False) -> PohozaevReport:
    """Residuals of the mass, seminorm and energy identities of the wave.

    Norms are computed in Fourier variables by Plancherel:
    ||phi||^2 = K^2 M_2 and ||(-Delta)^{s/2} phi||^2 = K^2 (M_1 - omega M_2)
    with K = phi(0)^{2 sigma + 1}; valid in every dimension.
    """
    n, s, om, sig = params.n, params.s, params.omega, params.sigma
    if use_quadrature:
        m1 = moment_quadrature(1.0, params)
        m2 = moment_quadrature(2.0, params)
    else:
        m1 = moment_closed(1.0, params)
        m2 = moment_closed(2.0, params)
    phi0 = m1 ** (-1.0 / (2.0 * sig))
    k2 = phi0 ** (2 * (2 * sig + 1))
    mass = k2 * m2
    semi = k2 * (m1 - om * m2)
    center_pow = phi0 ** (2 * sig + 2)

    res_mass = abs(mass - (2 * s - n) / (2 * s * om) * center_pow) / center_pow
    res_semi = abs(semi - n / (2 * s) * center_pow) / center_pow
    res_energy = abs(semi + om * mass - center_pow) / center_pow
    return PohozaevReport(l2_mass=mass, homog_seminorm_sq=semi,
                          center_pow=center_pow,
                          residual_mass_identity=res_mass,
                          residual_seminorm_identity=res_semi,
                          residual_energy_identity=res_energy)
