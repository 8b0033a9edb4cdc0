"""Self-contained numerical primitives: half-line quadrature with algebraic
tails on an adaptive Gauss-Legendre panel rule (the package's one half-line
integrator), log-Gamma/Beta, root finding by bisection of a sign-changing
bracket (the package's one root finder), the `--jobs` process map, and the
package's one exception hierarchy.

Every failure the package raises is a NumericsError.  A DomainError means a
value from the caller lies outside the model's or the command's range (the
CLI exits 2); every other failure is numerical (the CLI exits 1).

All routines are pure functions; nothing here holds mutable state.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np


class NumericsError(Exception):
    pass


class DomainError(NumericsError):
    pass


class UnsupportedDimension(DomainError):
    pass


class NotApplicable(DomainError):
    pass


class NonConvergence(NumericsError):
    pass


class NoSignChange(NumericsError):
    pass


class BadDecay(NumericsError):
    pass


class GridTooCoarse(NumericsError):
    pass


class RootSearchInconclusive(NumericsError):
    pass


class BlowUp(NumericsError):
    def __init__(self, t):
        super().__init__(f"non-finite field at t={t:g}")
        self.t = t


@dataclass(frozen=True)
class QuadratureSpec:
    rel_tol: float = 1e-12
    abs_tol: float = 1e-14
    max_subdivisions: int = 2000

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise DomainError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class Bracket:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise DomainError("bracket requires lo < hi")


# 15-point Gauss-Legendre panel rule; error estimated against the 7-point
# rule on the same panel, refined by bisection.
_G7_X, _G7_W = np.polynomial.legendre.leggauss(7)
_G15_X, _G15_W = np.polynomial.legendre.leggauss(15)


def _panel(f, a, b):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    f15 = f(mid + half * _G15_X)
    f7 = f(mid + half * _G7_X)
    v15 = half * float(np.dot(_G15_W, f15))
    v7 = half * float(np.dot(_G7_W, f7))
    return v15, abs(v15 - v7)


def _adaptive(f, a, b, rel_tol, abs_tol, max_subdivisions):
    """Adaptive panel integration of a vectorized f on [a, b]."""
    stack = [(a, b)]
    total = 0.0
    err = 0.0
    # crude magnitude estimate for the relative-tolerance target
    v0, _ = _panel(f, a, b)
    scale = max(abs(v0), abs_tol)
    n = 0
    while stack:
        lo, hi = stack.pop()
        v, e = _panel(f, lo, hi)
        tol_here = max(abs_tol, rel_tol * scale) * (hi - lo) / (b - a)
        if e <= tol_here or n >= max_subdivisions:
            if n >= max_subdivisions and e > tol_here:
                raise NonConvergence(
                    f"subdivision budget exhausted on [{lo}, {hi}] (err={e:g})"
                )
            total += v
            err += e
            scale = max(scale, abs(total))
        else:
            n += 1
            mid = 0.5 * (lo + hi)
            stack.append((lo, mid))
            stack.append((mid, hi))
    return total, err


def integrate_halfline(f, decay_exponent: float,
                       spec: QuadratureSpec = QuadratureSpec()):
    """Integrate f over (0, inf) given |f(rho)| <= C rho^{-p} at infinity.

    Returns (value, err_estimate).  The integral over [R, inf) is bounded by
    C R^{1-p}/(p-1) with C sampled from |f| near the cutoff R; R is grown
    until that bound is below tolerance.  [0, R] is integrated adaptively in
    the blocks [0, 1], [1, 4], [4, 16], ..., so the relative-tolerance scale
    of a far block is not set by the near-origin panel.
    """
    p = decay_exponent
    if p <= 1.0:
        raise BadDecay(f"decay exponent must exceed 1, got {p}")
    fv = lambda x: np.asarray(f(np.asarray(x, dtype=float)), dtype=float)

    R = 1.0
    probe, _ = _panel(fv, 0.0, 1.0)
    scale = max(abs(probe), spec.abs_tol)
    for _ in range(280):  # 4^280 stays below float overflow
        samples = np.array([R, 1.5 * R, 2.0 * R])
        # an integrand that overflows at R samples as 0 there, which would
        # pass for a tail bound met
        try:
            with np.errstate(over="raise"):
                f_samples = fv(samples)
        except FloatingPointError:
            raise NonConvergence(
                f"integrand overflowed at R={R:g} before the tail "
                "bound met tolerance") from None
        # R^p can overflow for huge R; work with f(R) * R directly:
        # tail = |f(R)| R^p * R^{1-p}/(p-1) = |f(R)| R / (p-1)
        c_over = float(np.max(np.abs(f_samples) * samples))
        tail = c_over / (p - 1.0)
        if tail <= 0.5 * max(spec.abs_tol, spec.rel_tol * scale):
            break
        R *= 4.0
    else:
        raise NonConvergence("tail cutoff search did not terminate")

    value = err = 0.0
    lo, hi = 0.0, min(1.0, R)
    while lo < R:
        v, e = _adaptive(fv, lo, hi, spec.rel_tol, spec.abs_tol,
                         spec.max_subdivisions)
        value += v
        err += e
        lo, hi = hi, min(4.0 * hi, R)
    return value, err + tail


def ln_gamma(x: float) -> float:
    """log Gamma(x) for x > 0 (delegated to the C library implementation)."""
    if x <= 0:
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def beta(a: float, b: float) -> float:
    """Euler Beta function B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b), a,b > 0.

    Evaluation order is symmetrized so beta(a, b) == beta(b, a) exactly.
    """
    if a <= 0 or b <= 0:
        raise DomainError(f"beta requires positive arguments, got ({a}, {b})")
    lo, hi = (a, b) if a <= b else (b, a)
    return math.exp(ln_gamma(lo) + ln_gamma(hi) - ln_gamma(lo + hi))


def find_root(f, bracket: Bracket, tol: float = 1e-13) -> float:
    """Root of f inside a sign-changing bracket, by bisection down to a
    bracket narrower than tol or to adjacent floats."""
    lo, hi = float(bracket.lo), float(bracket.hi)
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    # compare signs, not products: a product of two tiny values underflows
    # to zero and would steer the bracket the wrong way
    if (flo < 0) == (fhi < 0):
        raise NoSignChange(f"f({lo})={flo:g} and f({hi})={fhi:g} "
                           "have the same sign")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # bracket is down to adjacent floats
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _map_jobs(fn, items, jobs: int, chunksize: int = 1) -> list:
    """[fn(x) for x in items], spread over at most min(jobs, cpu count)
    worker processes; one worker means no pool.  fn must be picklable (a
    module-level function), and the result order is that of items."""
    if jobs < 1:
        raise DomainError(f"--jobs must be >= 1, got {jobs}")
    workers = min(jobs, os.cpu_count() or 1)
    if workers == 1:
        return [fn(x) for x in items]
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=multiprocessing.get_context("spawn")
                             ) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))
