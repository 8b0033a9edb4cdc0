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

The closed forms need only `math`: the module imports without numpy, which
loads on the first grid or quadrature call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .numerics import DomainError, beta, integrate_halfline, ln_gamma

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class PhysParams:
    """Model parameters (n, s, omega, sigma).

    The constraints s > n/2, omega > 0, sigma > 0 are exactly the existence
    conditions for the solitary wave; all four values must be finite.
    """
    n: int
    s: float
    omega: float
    sigma: float

    def __post_init__(self):
        for name in ("n", "s", "omega", "sigma"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got "
                                  f"{getattr(self, name)}")
        if self.n < 1 or int(self.n) != self.n:
            raise DomainError(f"n must be a positive integer, got {self.n}")
        if not self.s > self.n / 2:
            raise DomainError(f"requires s > n/2, got s={self.s}, n={self.n}")
        if not self.omega > 0:
            raise DomainError(f"requires omega > 0, got {self.omega}")
        if not self.sigma > 0:
            raise DomainError(f"requires sigma > 0, got {self.sigma}")

    @property
    def a(self) -> float:
        """The exponent a = n/(2s) in (0, 1)."""
        return self.n / (2.0 * self.s)


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere in R^n: 2 pi^{n/2} / Gamma(n/2)."""
    if n < 1:
        raise DomainError(f"dimension must be >= 1, got {n}")
    return 2.0 * math.pi ** (n / 2.0) / math.exp(ln_gamma(n / 2.0))


def moment_closed(j: float, params: PhysParams) -> float:
    """M_j(omega) via the Beta identity.

    M_j = |S^{n-1}| / ((2 pi)^n 2s) * omega^{n/(2s) - j} * B(n/(2s), j - n/(2s))
    """
    a = params.a
    if j <= a:
        raise DomainError(f"requires j > n/(2s) = {a}, got j = {j}")
    n, s, om = params.n, params.s, params.omega
    pref = sphere_area(n) / ((2.0 * math.pi) ** n * 2.0 * s)
    return pref * om ** (a - j) * beta(a, j - a)


def moment_printed(j: int, params: PhysParams) -> float:
    """The moment values as printed in the source formulas (no 1/(2s)).

    Kept as a documentation fixture; moment_quadrature shows these are off
    by the substitution Jacobian 2s.
    """
    return 2.0 * params.s * moment_closed(j, params)


def moment_quadrature(j: float, params: PhysParams) -> float:
    """M_j(omega) by exp-sinh radial quadrature, independent of the Beta path."""
    a = params.a
    if j <= a:
        raise DomainError(f"requires j > n/(2s) = {a}, got j = {j}")
    n, s, om = params.n, params.s, params.omega

    # rho^{n-1} / ((2 pi rho)^{2s} + om)^j with rho^{(n-1)/j} divided into
    # the base: no power overflows until the term is far below the sum
    b = (n - 1) / j
    c = (2.0 * math.pi) ** (2.0 * s)

    def integrand(rho):
        return 1.0 / (c * rho ** (2.0 * s - b) + om * rho ** -b) ** j

    value, _ = integrate_halfline(integrand, rel_tol=1e-13)
    return sphere_area(n) * value


@dataclass(frozen=True)
class FourierGrid:
    """Periodic Fourier grid: domain [-L, L), an even number M of modes,
    spacing h = 2L/M and a grid delta of weight 1/h at the x = 0 node."""
    half_length: float
    modes: int

    def __post_init__(self):
        if self.modes < 2 or self.modes % 2:
            raise DomainError(f"modes must be even and >= 2, got {self.modes}")

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
