"""Mollified Rayleigh-quotient minimization by Petviashvili iteration.

The quotient I[u] = (||(-Delta)^{s/2}u||^2 + omega ||u||^2) /
(int V_N |u|^{2 sigma + 2})^{1/(sigma+1)} with V_N(x) = N^n V(N x) a bump
mollifier is minimized on a periodic Fourier grid (n = 1 solves only); its
minimum m_N decreases to the sharp Sobolev constant c^2(omega) as N grows.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .moments import FourierGrid, PhysParams, sobolev_constant
from .numerics import (DomainError, NumericsError, _map_jobs, _Record,
                       integrate_halfline)

# largest default grid: 2^22 modes, the size of the discretized spectrum
# oracle; a finer mollifier scale needs an explicit FourierGrid
MAX_DEFAULT_MODES = 1 << 22
# Petviashvili sweep budget and the relative sweep-to-sweep change that ends it
MAX_SWEEPS = 10_000
RESIDUAL_TOL = 1e-10


class _MollifierSpecFields(NamedTuple):
    scale: float


class MollifierSpec(_Record, _MollifierSpecFields):
    """The bump N V(N x), N = scale, V = Z^{-1} exp(-1/(1-x^2)) on |x| < 1."""
    __slots__ = ()

    def __new__(cls, scale):
        if not (math.isfinite(scale) and scale > 0):
            raise DomainError(
                f"mollifier scale must be finite and > 0, got {scale}")
        return super().__new__(cls, scale)


def _bump(r):
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - r[inside] ** 2))
    return out


@functools.cache
def _bump_norm() -> float:
    """Z = int_{-1}^{1} exp(-1/(1-x^2)) dx = 2 int_0^inf exp(-cosh^2 u) /
    cosh^2 u du, by x = tanh u."""
    val, _ = integrate_halfline(
        lambda u: np.exp(-np.cosh(u) ** 2) / np.cosh(u) ** 2, rel_tol=1e-14)
    return 2.0 * val


def mollifier_value(x, spec: MollifierSpec):
    """N V(N x), normalized so the integral over the line is 1."""
    x = np.asarray(x, dtype=float)
    N = spec.scale
    return N * _bump(N * x) / _bump_norm()


class VariationalResult(NamedTuple):
    m_N: float
    iterations: int
    residual: float
    grid_x: np.ndarray
    profile: np.ndarray
    stabilizer: float  # |S - 1| at exit


def default_solve_grid(params: PhysParams, spec: MollifierSpec) -> FourierGrid:
    L = 40.0 * params.omega ** (-1.0 / (2 * params.s))
    h_target = 1.0 / (16.0 * spec.scale)
    doublings = math.ceil(math.log2(2 * L / h_target))
    if doublings < 1:
        raise DomainError(f"box [-{L:g}, {L:g}] is no wider than the "
                          f"mollifier grid spacing {h_target:g}: omega "
                          f"{params.omega:g} is too large for scale "
                          f"{spec.scale:g}")
    modes = 1 << doublings
    if modes > MAX_DEFAULT_MODES:
        raise DomainError(f"mollifier scale {spec.scale:g} needs {modes} "
                          f"modes, above the {MAX_DEFAULT_MODES} ceiling")
    return FourierGrid(half_length=L, modes=modes)


def petviashvili_solve(params: PhysParams, spec: MollifierSpec,
                       grid: FourierGrid) -> VariationalResult:
    """Fixed point of u <- S^gamma (K + omega)^{-1} [V_N |u|^{2 sigma} u]
    with the stabilizing power gamma = (2 sigma + 1)/(2 sigma)."""
    if params.n != 1:
        raise DomainError("grid solves are implemented for n = 1 only")
    L, M, h = grid.half_length, grid.modes, grid.h
    if h > 1.0 / (8.0 * spec.scale):
        raise DomainError(f"spacing {h:g} does not resolve mollifier "
                          f"scale 1/{spec.scale:g}")
    x = -L + h * np.arange(M)
    symbol = grid.symbol(params.s)
    om, sig = params.omega, params.sigma
    vn = mollifier_value(x, spec)
    gamma = (2 * sig + 1) / (2 * sig)

    u = np.exp(-x ** 2)
    for sweep in range(1, MAX_SWEEPS + 1):
        uh = np.fft.fft(u)
        nonlin = vn * np.abs(u) ** (2 * sig) * u
        lhs = float(np.sum((symbol + om) * np.abs(uh) ** 2).real) * h / M
        rhs = float(np.sum(nonlin * u)) * h
        s_fac = lhs / rhs
        u_new = np.real(np.fft.ifft(np.fft.fft(nonlin) / (symbol + om)))
        u_new *= s_fac ** gamma
        delta = np.max(np.abs(u_new - u)) / max(np.max(np.abs(u_new)), 1e-300)
        u = u_new
        if delta < RESIDUAL_TOL and abs(s_fac - 1.0) < 1e-9:
            s_exit = abs(s_fac - 1.0)
            break
    else:
        raise NumericsError(f"no fixed point after {MAX_SWEEPS} sweeps")

    # normalize the constraint int V_N |u|^{2 sigma + 2} = 1
    cnorm = float(np.sum(vn * np.abs(u) ** (2 * sig + 2))) * h
    phi = u * cnorm ** (-1.0 / (2 * sig + 2))

    uh = np.fft.fft(phi)
    num = float(np.sum((symbol + om) * np.abs(uh) ** 2).real) * h / M
    m_n = num  # constraint denominator is 1 after normalization

    # Euler-Lagrange residual in the discrete H^{-s} norm
    res_phys = (np.real(np.fft.ifft((symbol + om) * uh))
                - m_n * vn * np.abs(phi) ** (2 * sig) * phi)
    rh = np.fft.fft(res_phys)
    res = math.sqrt(float(np.sum(np.abs(rh) ** 2 / (1.0 + symbol))) * h / M)
    res /= max(math.sqrt(num), 1e-300)
    return VariationalResult(m_N=m_n, iterations=sweep, residual=res,
                             grid_x=x, profile=phi, stabilizer=s_exit)


def _study_row(task) -> dict:
    params, spec, grid, c2 = task
    r = petviashvili_solve(params, spec, grid)
    return {"N": spec.scale, "m_N": r.m_N, "gap": r.m_N - c2,
            "iterations": r.iterations, "residual": r.residual}


def convergence_study(params: PhysParams, scales, jobs: int = 1) -> list[dict]:
    """One row {N, m_N, gap to c^2(omega), iterations, residual} per
    mollifier scale N, the solves spread over `jobs` processes.  Every
    scale and its default grid is checked before the first solve."""
    specs = [MollifierSpec(scale=float(N)) for N in scales]
    c2 = sobolev_constant(params)
    tasks = [(params, spec, default_solve_grid(params, spec), c2)
             for spec in specs]
    return _map_jobs(_study_row, tasks, jobs)
