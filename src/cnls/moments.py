"""The radial moments M_j(omega) = int dxi / ((2pi|xi|)^{2s} + omega)^j.

Two independent evaluation routes: a closed form through the Beta function,
and direct radial quadrature by the exp-sinh rule of numerics.  The closed
form carries the substitution Jacobian factor 1/(2s); the quadrature route
confirms it (at n=1, s=1, omega=1 the arctan antiderivative gives M_1 = 1/2).

On a periodic grid the same moments are sums, S_j = (1/2L) sum_k d_k^{-j}
with d_k = |2 pi xi_k|^{2s} + omega, and they converge to M_j as the grid
refines.  Every grid computation of the package (the discretized spectrum
oracles, the Petviashvili solve, the simulator) reads its symbol from one
FourierGrid.  The symbol is even in k, so every grid sum runs over the
M/2 + 1 values of `half_symbol` with weights 1, 2, ..., 2, 1
(grid_sum, discrete_moment); the matrices and the FFT-based
solvers read every mode from `symbol`.

The sharp embedding constant c^2 = 1/M_1 is defined here as well, so the
spectral layer needs nothing from the wave profiles.

The closed forms need only `math`: the module imports without numpy, which
loads on the first grid or quadrature call.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .numerics import (DomainError, _in_float_range, _inf_on_overflow,
                       _is_normal, _Record, beta, integrate_halfline,
                       ln_gamma)

if TYPE_CHECKING:
    import numpy as np


class _PhysParamsFields(NamedTuple):
    n: int
    s: float
    omega: float
    sigma: float


class PhysParams(_Record, _PhysParamsFields):
    """Model parameters (n, s, omega, sigma).

    The constraints s > n/2, omega > 0, sigma > 0 are exactly the existence
    conditions for the solitary wave; all four values must be finite.
    """
    __slots__ = ()

    def __new__(cls, n, s, omega, sigma):
        for name, value in zip(cls._fields, (n, s, omega, sigma)):
            if not math.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")
        if n < 1 or int(n) != n:
            raise DomainError(f"n must be a positive integer, got {n}")
        if not s > n / 2:
            raise DomainError(f"requires s > n/2, got s={s}, n={n}")
        if not omega > 0:
            raise DomainError(f"requires omega > 0, got {omega}")
        if not sigma > 0:
            raise DomainError(f"requires sigma > 0, got {sigma}")
        return super().__new__(cls, n, s, omega, sigma)

    @property
    def a(self) -> float:
        """The exponent a = n/(2s) in (0, 1), formed as (n/2)/s: the same
        float as n/(2s), and not 0 past s = 9e307, where 2s overflows."""
        return 0.5 * self.n / self.s


def _direct_sphere_area(n: int) -> float:
    """2 pi^{n/2} / Gamma(n/2); 0 or NaN once Gamma(n/2) overflows."""
    return (2.0 * _inf_on_overflow(pow, math.pi, n / 2.0)
            / _inf_on_overflow(math.exp, ln_gamma(n / 2.0)))


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n, formed in log space where the
    direct quotient is not a normal float (from n = 344 on: 5.2e-224)."""
    if n < 1:
        raise DomainError(f"dimension must be >= 1, got {n}")
    area = _direct_sphere_area(n)
    if _is_normal(area):
        return area
    ln_area = math.log(2.0) + 0.5 * n * math.log(math.pi) - ln_gamma(0.5 * n)
    return _in_float_range(math.exp(ln_area), "unit sphere area |S^(n-1)|",
                           f"n = {n}")


def moment_closed(j: float, params: PhysParams) -> float:
    """M_j(omega) via the Beta identity.

    M_j = |S^{n-1}| / ((2 pi)^n 2s) * omega^{n/(2s) - j} * B(n/(2s), j - n/(2s))

    j - a is formed as (sj - n/2)/s, not from the rounded a: near s = n/2
    the difference j - a would otherwise carry a's rounding, a relative
    error of about 1e-16/(j - a) that B passes on.  It is the float
    (2sj - n)/(2s) with top and bottom halved, so sj may reach 1.8e308.
    The direct product stands where its prefactor and value are normal
    floats.  Elsewhere (a factor over- or underflows, or the prefactor or
    M_j is subnormal, as at every n >= 344) M_j is the exp of the summed
    logs of 1/(s (4 pi)^{n/2} Gamma(n/2)), omega^{a-j} and B, each rounded
    at its own size (up to about 1e3).  A moment beyond the float range is
    a NumericsError.
    """
    n, s, om = params.n, params.s, params.omega
    a = params.a
    j_minus_a = (s * j - 0.5 * n) / s
    if not j_minus_a > 0:
        raise DomainError(f"requires j > n/(2s) = {a}, got j = {j}")
    pref = _direct_sphere_area(n) / (_inf_on_overflow(pow, 2.0 * math.pi, n)
                                     * 2.0 * s)
    m = (pref * _inf_on_overflow(pow, om, a - j)
         * _inf_on_overflow(beta, a, j_minus_a))
    if not (_is_normal(pref) and _is_normal(m)):
        ln_pref = -(math.log(s) + 0.5 * n * math.log(4.0 * math.pi)
                    + ln_gamma(0.5 * n))
        ln_b = ln_gamma(a) + ln_gamma(j_minus_a) - ln_gamma(a + j_minus_a)
        m = _inf_on_overflow(math.exp,
                             ln_pref + (a - j) * math.log(om) + ln_b)
    return _in_float_range(m, "moment M_{j:g}", "s = {s}, omega = {om:g}",
                           j=j, s=s, om=om)


def sobolev_constant(params: PhysParams) -> float:
    """Sharp constant c^2(omega) of the H^s -> L^inf embedding: 1/M_1(omega)."""
    return 1.0 / moment_closed(1.0, params)


def moment_printed(j: int, params: PhysParams) -> float:
    """The moment values as printed in the source formulas (no 1/(2s)).

    Kept as a documentation fixture; moment_quadrature shows these are off
    by the substitution Jacobian 2s.
    """
    return 2.0 * params.s * moment_closed(j, params)


def moment_quadrature(j: float, params: PhysParams) -> float:
    """M_j(omega) by exp-sinh radial quadrature, independent of the Beta path.

    The radial integrand f = rho^{n-1} / ((2 pi rho)^{2s} + omega)^j decays
    only like rho^{-1-e}, e = 2sj - n, too slowly for the exp-sinh window
    once e falls below about 0.07.  So its tail is subtracted and added back
    analytically.  With u = rho/rho0, where rho0 = omega^{1/(2s)} / (2 pi)
    solves (2 pi rho)^{2s} = omega, and f0 = rho0^{n-1} / omega^j, the
    function T = f0 (1 + u)^{-1-e} has f's leading tail and the elementary
    integral f0 rho0 / e.  That integral is added back as the same multiple
    of the unit density (1 + u)^{-2} / rho0, inside the integrand, so the
    rule's tolerance is relative to M_j itself: f - T + (f0/e) (1 + u)^{-2}
    has integral M_j / |S^{n-1}| and decays like rho^{-2} for every e > 0.
    Its scales (2 pi)^{2s} and omega^j, and the moment itself, must be
    floats, or it is a NumericsError.
    """
    a = params.a
    if j <= a:
        raise DomainError(f"requires j > n/(2s) = {a}, got j = {j}")
    n, s, om = params.n, params.s, params.omega

    # rho^{n-1} / ((2 pi rho)^{2s} + om)^j with rho^{(n-1)/j} divided into
    # the base: no power overflows until the term is far below the sum
    b = (n - 1) / j
    quantity = f"quadrature moment M_{j:g}"
    c = _in_float_range(_inf_on_overflow(pow, 2.0 * math.pi, 2.0 * s),
                        quantity, f"(2 pi)^(2s) at s = {s:g}")
    e = 2.0 * s * j - n
    rho0 = om ** (1.0 / (2.0 * s)) / (2.0 * math.pi)
    f0 = rho0 ** (n - 1) / _in_float_range(
        _inf_on_overflow(pow, om, j), quantity,
        f"omega^j at omega = {om:g}, j = {j:g}")

    def integrand(rho):
        u1 = 1.0 + rho / rho0
        return (1.0 / (c * rho ** (2.0 * s - b) + om * rho ** -b) ** j
                - f0 * u1 ** (-1.0 - e) + (f0 / e) / (u1 * u1))

    value, _ = integrate_halfline(integrand, rel_tol=1e-13)
    return _in_float_range(sphere_area(n) * value, quantity,
                           f"s = {s}, omega = {om:g}")


class _FourierGridFields(NamedTuple):
    half_length: float
    modes: int


class FourierGrid(_Record, _FourierGridFields):
    """Periodic Fourier grid: domain [-L, L), an even number M of modes,
    spacing h = 2L/M and a grid delta of weight 1/h at the x = 0 node."""
    __slots__ = ()

    def __new__(cls, half_length, modes):
        if modes < 2 or modes % 2:
            raise DomainError(f"modes must be even and >= 2, got {modes}")
        return super().__new__(cls, half_length, modes)

    @property
    def h(self) -> float:
        return 2.0 * self.half_length / self.modes

    def symbol(self, s: float) -> np.ndarray:
        """|2 pi xi_k|^{2s}, the symbol of (-Delta)^s, in FFT order."""
        import numpy as np
        xi = np.fft.fftfreq(self.modes, d=self.h)
        return (2.0 * math.pi * np.abs(xi)) ** (2.0 * s)

    def half_symbol(self, s: float) -> np.ndarray:
        """The symbol on k = 0..M/2 only, the same values as `symbol` there.

        The symbol is even in k, so these are all of its values: the modes
        +k and -k share one entry, and only k = 0 and k = M/2 are single."""
        import numpy as np
        sym = np.arange(self.modes // 2 + 1, dtype=float)
        sym *= 1.0 / (self.modes * self.h)  # xi_k, as fftfreq forms it
        sym *= 2.0 * math.pi
        sym **= 2.0 * s
        return sym


def grid_sum(r: np.ndarray, grid: FourierGrid,
             x: np.ndarray | None = None) -> float:
    """(1/2L) sum_k r_k (or x_k r_k) over all M modes of the grid, from
    even sequences r and x given on the half spectrum k = 0..M/2: the
    weights are 1, 2, ..., 2, 1."""
    import numpy as np
    if r.shape != (grid.modes // 2 + 1,):
        raise DomainError(f"expected the {grid.modes // 2 + 1} half-spectrum "
                          f"values of a {grid.modes}-mode grid, got shape "
                          f"{r.shape}")
    if x is None:
        total = r[0] + r[-1] + 2.0 * np.sum(r[1:-1])
    else:
        total = x[0] * r[0] + x[-1] * r[-1] + 2.0 * np.dot(x[1:-1], r[1:-1])
    return float(total) / (2.0 * grid.half_length)


def discrete_moment(j: int, d: np.ndarray, grid: FourierGrid) -> float:
    """S_j = (1/2L) sum_k d_k^{-j}, the grid analogue of M_j for the
    diagonal d = half_symbol + omega on the half spectrum k = 0..M/2."""
    return grid_sum(1.0 / d ** j, grid)
