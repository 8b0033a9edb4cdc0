"""Green's function of (-Delta)^s + lambda, the explicit solitary-wave
profile, the printed formula of the sharp Sobolev embedding constant (the
constant itself, 1/M_1, is moments.sobolev_constant), and the Pohozaev
identity checker.

Pointwise profile values are radial inverse Fourier transforms (n = 1, 2, 3),
integrated on a ray in the upper half plane where the integrand decays
without oscillating, plus the residues of the poles the ray passes; every
norm identity is evaluated in Fourier variables through the moments, so
those work in any dimension.  The module runs on `math` and `cmath` alone:
the ray's nodes and coefficients depend only on (n, s, lambda) and are built
once per triple, each radius is one plain sum over them, and the n = 2
kernel H0^(1) is computed here (_hankel0e).
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from typing import NamedTuple

from .moments import PhysParams, moment_closed, moment_quadrature
from .moments import sobolev_constant  # noqa: F401  (re-exported)
from .numerics import DomainError, NumericsError, _linspace, ln_gamma

# Green's function quadrature: exp-sinh nodes y = exp((pi/2) sinh t) on the
# grid t = k h, |t| <= NODE_T_MAX, with step h at most NODE_STEP, on a ray
# at an angle chosen by _ray_angle from these settings.  A node whose term
# bound is below NODE_DROP times the largest one is left out of the rule, and
# a term whose kernel has decayed by e^{-DECAY_CUTOFF} out of the sum.
NODE_T_MAX = 5.0
NODE_STEP = 1.0 / 32.0
RAY_MIN_ANGLE = 0.35
RAY_ANGLES = 128
POLE_CLEARANCE = 0.25
NODE_DROP = 1e-20
DECAY_CUTOFF = 50.0
# largest s of a pointwise value: the ray rule builds about 80 s nodes and
# int(s) + 2 pole angles, so a 201-radius profile takes seconds at s = 1e3
# and a larger s would exhaust time or memory before the first radius
MAX_POINTWISE_S = 1e3

# regimes of _hankel0e in |z|: power series below, Hankel asymptotic series
# from HANKEL_ASYMPTOTIC, the K0 integral between
HANKEL_SERIES = 2.0
HANKEL_ASYMPTOTIC = 25.0
LOG_HALF_GAMMA = 0.57721566490153286 - math.log(2.0)  # Euler's gamma - ln 2


class RadialProfile(NamedTuple):
    params: PhysParams
    radii: tuple[float, ...]
    values: tuple[float, ...]
    center_value: float


class PohozaevReport(NamedTuple):
    l2_mass: float
    homog_seminorm_sq: float
    center_pow: float
    residual_mass_identity: float
    residual_seminorm_identity: float
    residual_energy_identity: float


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


def _hankel0e(z: complex) -> complex:
    """H0^(1)(z) e^{-iz} for z != 0 in the closed upper half plane.

    |z| < HANKEL_SERIES: the power series of J0 + i Y0 (DLMF 10.8.1-2).
    |z| >= HANKEL_ASYMPTOTIC: Hankel's asymptotic series (DLMF 10.17.5),
    summed until a term drops below 1e-17.  Between: H0^(1)(z) e^{-iz}
    = (2/(pi i)) int_0^inf exp(iz(cosh t - 1)) dt (DLMF 10.32.9 for
    K0(-iz)), taken on its steepest-descent path, 2 iz sinh^2(t/2) = -u^2:
    (2/pi) (1 - i) z^{-1/2} int_0^inf e^{-u^2} (1 + iu^2/(2z))^{-1/2} du.
    The branch points of that integrand lie at least sqrt|z| from the real
    u axis, so the trapezoid sum with step 2 pi sqrt|z| / (|z| + 40) errs
    by about e^{-40}, and it stops where e^{-u^2} < e^{-40}.
    """
    az = abs(z)
    if az < HANKEL_SERIES:
        q = -0.25 * z * z
        term = j0 = 1.0 + 0j
        y0 = 0j
        harmonic = 0.0
        k = 0
        while abs(term) > 1e-18:
            k += 1
            term *= q / (k * k)
            harmonic += 1.0 / k
            j0 += term
            y0 -= harmonic * term
        y0 = (2.0 / math.pi) * ((cmath.log(z) + LOG_HALF_GAMMA) * j0 + y0)
        return (j0 + 1j * y0) * cmath.exp(-1j * z)
    if az < HANKEL_ASYMPTOTIC:
        c = 0.5j / z
        h = 2.0 * math.pi * math.sqrt(az) / (az + 40.0)
        total = 0.5 + 0j
        for k in range(1, int(math.sqrt(40.0) / h) + 1):
            u2 = (k * h) ** 2
            total += math.exp(-u2) / cmath.sqrt(1.0 + c * u2)
        return (2.0 / math.pi) * (1 - 1j) * h * total / cmath.sqrt(z)
    term = total = 1.0 + 0j
    k = 0
    while abs(term) > 1e-17:
        k += 1
        term *= -1j * (2 * k - 1) ** 2 / (8.0 * k * z)
        total += term
    return (1 - 1j) / math.sqrt(math.pi) * total / cmath.sqrt(z)


def _ray_angle(alpha) -> float:
    """The largest of RAY_ANGLES angles in [RAY_MIN_ANGLE, pi/2] that keeps
    POLE_CLEARANCE, or the best clearance any of them reaches, from every
    pole angle alpha.  The largest such angle, not the one farthest from the
    poles: |e^{ikr}| = e^{-|k| r sin theta} on the ray, so the integrand
    decays fastest near pi/2."""
    thetas = _linspace(RAY_MIN_ANGLE, 0.5 * math.pi, RAY_ANGLES)
    dist = [min(abs(theta - a) for a in alpha) for theta in thetas]
    clear = min(POLE_CLEARANCE, max(dist))
    return max(theta for theta, d in zip(thetas, dist) if d >= clear)


class _RayRule(NamedTuple):
    angle: float
    kappa: float
    nodes: tuple[tuple[complex, complex], ...]  # (k_j, g_j) on the ray
    poles: tuple[tuple[complex, complex], ...]  # (k_p, c_p), swept poles


@functools.lru_cache(maxsize=32)
def _ray_rule(n: int, s: float, lam: float) -> _RayRule:
    """The radius-free part of greens_value at (n, s, lam): with m = 0 at
    n = 1 and 1 otherwise, I(r) = sum_j g_j E(k_j r) + sum_p c_p E(k_p r),
    g_j = e^{i theta} w_j k_j^m / (k_j^{2s} + lam) over the exp-sinh nodes
    k_j = kappa y_j e^{i theta} (w_j including kappa), and
    c_p = 2 pi i (-k_p^{m+1} / (2 s lam)) over the swept poles."""
    m = 0 if n == 1 else 1
    kappa = lam ** (1.0 / (2.0 * s))
    alpha = [math.pi * (2.0 * j + 1.0) / (2.0 * s) for j in range(int(s) + 2)]
    theta = _ray_angle(alpha)
    turn = kappa * cmath.exp(1j * theta)

    # the poles lie pi/s apart in angle, so the step shrinks at large s
    h = min(NODE_STEP, 1.0 / (8.0 * s))
    steps = math.ceil(NODE_T_MAX / h)
    scale = turn ** (m + 1) * (h * 0.5 * math.pi / lam)
    nodes = []
    for i in range(-steps, steps + 1):
        t = i * h
        ln_y = 0.5 * math.pi * math.sinh(t)
        y = math.exp(ln_y)
        # (k^{2s} + lam) / lam = 1 + y^{2s} e^{2 i s theta}, divided by its
        # larger part so that neither overflows
        u = 2.0 * s * ln_y
        if u <= 0.0:
            inv = 1.0 / (1.0 + cmath.exp(complex(u, 2.0 * s * theta)))
        else:
            tail = cmath.exp(complex(-u, -2.0 * s * theta))
            inv = tail / (1.0 + tail)
        g = scale * (math.cosh(t) * y ** (m + 1)) * inv
        # a term is at most |g| E, but at n = 3 greens_value divides the
        # terms |g| |expm1(ikr)| <= |g| y kappa r by r
        nodes.append((turn * y, g, abs(g) * (max(1.0, y) if n == 3 else 1.0)))
    floor = NODE_DROP * max(bound for _, _, bound in nodes)

    poles = [kappa * cmath.exp(1j * a) for a in alpha if a < theta]
    return _RayRule(
        theta, kappa, tuple((k, g) for k, g, bound in nodes if bound > floor),
        tuple((k, -1j * math.pi * k ** (m + 1) / (s * lam)) for k in poles))


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
    Res_j = -k_j^{m+1} E(k_j r) / (2 s lam).  Everything but E(k r) depends
    on (n, s, lam) alone and comes from _ray_rule.  E(z) is e^{iz}, or
    _hankel0e(z) e^{iz} at n = 2; a term with Im z > DECAY_CUTOFF
    (|E| < e^{-50}) counts as 0.  At n = 3 and kappa r < 1, I(r) is O(1) but
    its imaginary part only O(r), so E(z) - 1 = expm1(iz) is summed instead:
    I(r) - I(0) has the same imaginary part, since I(0) is real, and no O(1)
    terms to cancel.  (Past kappa r = 1 the plain sum is the more accurate:
    e^{ikr} damps the terms near a pole close to the ray, and 1 does not.)
    """
    n, s = params.n, params.s
    if n not in (1, 2, 3):
        raise DomainError(
            f"pointwise evaluation supports n in {{1,2,3}}, got n={n}")
    if s > MAX_POINTWISE_S:
        raise DomainError(f"pointwise evaluation supports s <= "
                          f"{MAX_POINTWISE_S:g}, got s={s}")
    if not (r >= 0 and lam > 0):
        raise DomainError("requires r >= 0 and lam > 0")
    if 0.0 < r < sys.float_info.min:
        raise DomainError(f"r = {r:g} is subnormal: k r would lose its digits")
    if r == 0.0:
        return _m1(n, s, lam)

    rule = _ray_rule(n, s, lam)
    shifted = n == 3 and rule.kappa * r < 1.0
    total = 0j
    for k, g in rule.nodes + rule.poles:
        z = k * r
        if z.imag > DECAY_CUTOFF:
            if shifted:
                total -= g
        elif shifted:
            x, y = z.real, z.imag
            half = math.sin(0.5 * x)
            total += g * complex(math.expm1(-y) * math.cos(x) - 2.0 * half * half,
                                 math.exp(-y) * math.sin(x))
        elif n == 2:
            if z:  # else k r underflowed: |g| is below any other term's
                total += g * _hankel0e(z) * cmath.exp(1j * z)
        else:
            total += g * cmath.exp(1j * z)

    if n == 1:
        return total.real / math.pi
    if n == 2:
        return total.real / (2.0 * math.pi)
    return total.imag / (2.0 * math.pi ** 2 * r)


def _power(base: float, exponent: float, name: str) -> float:
    """base ** exponent for base > 0, or a NumericsError naming the
    quantity if the power overflows or underflows to 0: the callers divide
    by it or report it."""
    try:
        value = base ** exponent
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise NumericsError(f"{name} leaves the float range: "
                            f"{base:g} ** {exponent:g}")
    return value


def soliton_profile(radii, params: PhysParams) -> RadialProfile:
    """Solitary-wave profile phi(r) = G_s^omega(r) / M_1(omega)^{1+1/(2 sigma)}."""
    try:
        radii = tuple(float(r) for r in radii)
    except (TypeError, ValueError):
        radii = ()
    if len(radii) < 2 or radii[0] != 0.0:
        raise DomainError("radii must be a 1-d ascending grid starting at 0")
    green = [greens_value(r, params.omega, params) for r in radii]
    m1, sig = green[0], params.sigma  # G(0) = M_1
    norm = _power(m1, 1.0 + 1.0 / (2.0 * sig),
                  "profile norm M_1^(1 + 1/(2 sigma))")
    center = _power(m1, -1.0 / (2.0 * sig), "phi(0) = M_1^(-1/(2 sigma))")
    return RadialProfile(params=params, radii=radii,
                         values=tuple(g / norm for g in green),
                         center_value=center)


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
    phi0 = _power(m1, -1.0 / (2.0 * sig), "phi(0) = M_1^(-1/(2 sigma))")
    k2 = _power(phi0, 2 * (2 * sig + 1), "K^2 = phi(0)^(4 sigma + 2)")
    mass = k2 * m2
    semi = k2 * (m1 - om * m2)
    center_pow = _power(phi0, 2 * sig + 2, "phi(0)^(2 sigma + 2)")

    res_mass = abs(mass - (2 * s - n) / (2 * s * om) * center_pow) / center_pow
    res_semi = abs(semi - n / (2 * s) * center_pow) / center_pow
    res_energy = abs(semi + om * mass - center_pow) / center_pow
    return PohozaevReport(l2_mass=mass, homog_seminorm_sq=semi,
                          center_pow=center_pow,
                          residual_mass_identity=res_mass,
                          residual_seminorm_identity=res_semi,
                          residual_energy_identity=res_energy)
