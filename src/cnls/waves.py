"""Green's function of (-Delta)^s + lambda, the explicit solitary-wave
profile, the sharp Sobolev embedding constant, and the Pohozaev identity
checker.

Pointwise profile values are radial inverse Fourier transforms with a
cosine / J0 / sine kernel (n = 1, 2, 3); every norm identity is evaluated in
Fourier variables through the moments, so those work in any dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import j0, jn_zeros

from .moments import PhysParams, moment_closed, moment_quadrature, sphere_area
from .numerics import (DomainError, UnsupportedDimension, _adaptive, _blocks,
                       ln_gamma)


@dataclass(frozen=True)
class RadialProfile:
    params: PhysParams
    radii: np.ndarray
    values: np.ndarray
    kind: str  # "greens" | "soliton"
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


def _averaged_alternating(terms: np.ndarray) -> float:
    """Sum an alternating, algebraically decaying series by iterated
    averaging of its partial sums (Euler-style acceleration)."""
    t = np.cumsum(terms)
    while t.size > 1:
        t = 0.5 * (t[:-1] + t[1:])
    return float(t[0])


def greens_value(r: float, lam: float, params: PhysParams) -> float:
    """G_s^lam(r): radial inverse Fourier transform of 1/((2pi rho)^{2s}+lam).

    The half-line integral is split at the first kernel zero past the peak
    of the non-oscillatory factor; beyond that, half-period panels form an
    alternating series summed with averaging acceleration.
    """
    n, s = params.n, params.s
    if n not in (1, 2, 3):
        raise UnsupportedDimension(
            f"pointwise evaluation supports n in {{1,2,3}}, got n={n}")
    if r < 0 or lam <= 0:
        raise DomainError("requires r >= 0 and lam > 0")
    if r == 0.0:
        return _m1(n, s, lam)

    two_pi_r = 2.0 * math.pi * r

    # radial power after the angular integral: rho^0 (cos), rho^1 (J0),
    # rho^1 (sin/r; the 4 pi rho^2 sphere factor cancels one rho against
    # the sinc denominator)
    m_pow = 0 if n == 1 else 1

    def g(rho):
        return rho ** m_pow / ((2.0 * math.pi * rho) ** (2.0 * s) + lam)

    if n == 1:
        kernel = lambda rho: np.cos(two_pi_r * rho)
        prefactor = 2.0
        # zeros of cos(2 pi r rho)
        zero = lambda k: (k + 0.5) * math.pi / two_pi_r
    elif n == 2:
        kernel = lambda rho: j0(two_pi_r * rho)
        prefactor = 2.0 * math.pi
        _j0z = jn_zeros(0, 256)
        def zero(k, _j0z=_j0z):
            if k < _j0z.size:
                return _j0z[k] / two_pi_r
            return (_j0z[-1] + (k - _j0z.size + 1) * math.pi) / two_pi_r
    else:
        kernel = lambda rho: np.sin(two_pi_r * rho)
        prefactor = 2.0 / r
        zero = lambda k: (k + 1) * math.pi / two_pi_r

    f = lambda rho: kernel(rho) * g(rho)

    # peak of the non-oscillatory factor rho^{m_pow} g(rho)
    if m_pow == 0:
        rho_peak = 0.0
    else:
        rho_peak = (m_pow * lam / (2 * s - m_pow)) ** (1 / (2 * s)) / (2 * math.pi)
    k0 = 0
    while zero(k0) <= rho_peak:
        k0 += 1

    head, _ = _blocks(f, zero(k0), 1e-13, 1e-16, 4000)

    n_panels = 48
    terms = np.empty(n_panels)
    for i in range(n_panels):
        v, _ = _adaptive(f, zero(k0 + i), zero(k0 + i + 1), 1e-13, 1e-17, 64)
        terms[i] = v
    tail = _averaged_alternating(terms)
    return prefactor * (head + tail)


def soliton_profile(radii, params: PhysParams) -> RadialProfile:
    """Solitary-wave profile phi(r) = G_s^omega(r) / M_1(omega)^{1+1/(2 sigma)}."""
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or radii.size < 2 or radii[0] != 0.0:
        raise DomainError("radii must be a 1-d ascending grid starting at 0")
    m1 = moment_closed(1.0, params)
    norm = m1 ** (1.0 + 1.0 / (2.0 * params.sigma))
    values = np.array([greens_value(r, params.omega, params) for r in radii])
    values /= norm
    return RadialProfile(params=params, radii=radii, values=values,
                         kind="soliton", center_value=m1 ** (-1.0 / (2.0 * params.sigma)))


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
