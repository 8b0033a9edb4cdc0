"""The radial moments M_j(omega) = int dxi / ((2pi|xi|)^{2s} + omega)^j.

Two independent evaluation routes: a closed form through the Beta function,
and direct radial quadrature.  The closed form carries the substitution
Jacobian factor 1/(2s); the quadrature route confirms it (at n=1, s=1,
omega=1 the arctan antiderivative gives M_1 = 1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import DomainError, beta, integrate_halfline, ln_gamma


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
    """M_j(omega) by adaptive radial quadrature, independent of the Beta path."""
    a = params.a
    if j <= a:
        raise DomainError(f"requires j > n/(2s) = {a}, got j = {j}")
    n, s, om = params.n, params.s, params.omega

    def integrand(rho):
        return rho ** (n - 1) / ((2.0 * math.pi * rho) ** (2.0 * s) + om) ** j

    p = 2.0 * s * j - (n - 1)  # algebraic decay exponent, > 1 since j > n/(2s)
    value, _ = integrate_halfline(integrand, p, rel_tol=1e-13)
    return sphere_area(n) * value
