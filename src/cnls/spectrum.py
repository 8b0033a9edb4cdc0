"""Spectral theory of the linearization: bound states of the delta-well
operator, the Vakhitov-Kolokolov quantity, stability classification, the
unstable eigenvalue of the Hamiltonian problem, and a discretized matrix
oracle.  The production paths are closed forms; the radial quadrature of the
characteristic function and the discretized matrices are kept as oracles.

The delta-well operator L_mu = (-Delta)^s + omega - mu delta_0 has its point
spectrum governed by the scalar equation mu * M_1(omega +/- lambda) = 1; the
deep-well regime mu > c^2(omega) produces the negative eigenvalue (the
shallow-well bullet labels in the source text are transposed relative to its
own proof, which we follow).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .moments import PhysParams, moment_closed, sphere_area
from .numerics import (Bracket, DomainError, GridTooCoarse, NonConvergence,
                       NotApplicable, RootSearchInconclusive, find_root,
                       integrate_halfline)
from .waves import sobolev_constant

DEGENERACY_TOL = 1e-12
# half-width, relative to the claimed root, of the oracle's sign-change bracket
ORACLE_ROOT_RTOL = 1e-4


@dataclass(frozen=True)
class BoundState:
    eigenvalue: float
    mu: float
    regime: str  # below_c2 | at_c2 | above_c2
    eigfn_shift: float  # lambda in Psi0_hat = 1/((2pi|xi|)^{2s} + omega +/- lambda)


@dataclass(frozen=True)
class SpectralReport:
    params: PhysParams
    c2: float
    mu_minus: float
    mu_plus: float
    lplus_negative_eig: float
    vk_quantity: float
    n_L: int
    n_D: int
    k_r: int
    classification: str  # stable | unstable | degenerate
    unstable_lambda: float | None


@dataclass(frozen=True)
class OracleGrid:
    """Periodic Fourier discretization: domain [-L, L), N modes, grid delta
    of weight 1/h at the x=0 node."""
    half_length: float
    modes: int

    def fourier_freqs(self):
        k = np.arange(-self.modes // 2, self.modes // 2)
        return k / (2.0 * self.half_length)


def default_grid(params: PhysParams) -> OracleGrid:
    # L = 60 om^{-1/(2s)} with N=1024 leaves a Fourier cutoff too low for
    # the 1% eigenvalue tolerance; L=15 with N=8192 puts it at ~2 orders
    # of magnitude more headroom.
    return OracleGrid(half_length=15.0 * params.omega ** (-1.0 / (2 * params.s)),
                      modes=8192)


def bound_state(mu: float, params: PhysParams) -> BoundState:
    """Lowest eigenvalue of L_mu in closed form.

    mu M_1(omega - E) = 1 with M_1(x) = M_1(omega) (x/omega)^{a-1} gives
    E = omega (1 - (mu/c^2)^{1/(1-a)}) in both regimes.
    """
    if mu <= 0:
        raise DomainError(f"requires mu > 0, got {mu}")
    c2 = sobolev_constant(params)
    if math.isclose(mu, c2, rel_tol=1e-14):
        return BoundState(eigenvalue=0.0, mu=mu, regime="at_c2", eigfn_shift=0.0)
    try:
        eig = -params.omega * math.expm1(math.log(mu / c2) / (1.0 - params.a))
    except OverflowError:
        raise NonConvergence(
            f"bound-state eigenvalue of L_mu (L+ at mu = (2 sigma + 1) c^2) "
            f"overflows a float: mu/c^2 = {mu / c2:g} raised to 1/(1-a) = "
            f"{1.0 / (1.0 - params.a):g}") from None
    return BoundState(eigenvalue=eig, mu=mu,
                      regime="above_c2" if mu > c2 else "below_c2",
                      eigfn_shift=abs(eig))


def vk_quantity(params: PhysParams) -> float:
    """Q = M_3 - ((2 sigma + 1)/(2 sigma)) M_2^2 / M_1, the resolvent pairing
    whose sign decides spectral stability (negative <=> stable)."""
    m1 = moment_closed(1.0, params)
    m2 = moment_closed(2.0, params)
    m3 = moment_closed(3.0, params)
    sig = params.sigma
    return m3 - (2 * sig + 1) / (2 * sig) * m2 * m2 / m1


def sigma_critical(params: PhysParams) -> float:
    """Stability threshold sigma* = 2s/n - 1."""
    return 2.0 * params.s / params.n - 1.0


def stability_regime(params: PhysParams) -> str:
    """stable | unstable | degenerate, from sigma against sigma*; within
    DEGENERACY_TOL of sigma* the cell counts as degenerate.

    Q = C (1-a) [(2-a)/2 - (1 + 1/(2 sigma))(1-a)] changes sign exactly at
    sigma*, so this is the sign of Q without its round-off near zero.
    """
    gap = params.sigma - sigma_critical(params)
    if abs(gap) <= DEGENERACY_TOL:
        return "degenerate"
    return "unstable" if gap > 0 else "stable"


def eigen_determinant(lam: float, params: PhysParams) -> float:
    """D(lambda) = (Re w - 1)((2 sigma + 1) Re w - 1) + (2 sigma + 1)(Im w)^2
    with w = c^2 M_1(omega - i lambda) = (1 - i lambda/omega)^{a-1}; a
    positive root is a real unstable eigenvalue of the linearized
    Hamiltonian problem.  D(0) = 0 (kernel direction).

    Re w - 1 is formed from expm1 and sin^2, without cancellation, so D
    keeps its sign down to lambda ~ 1e-8 omega, where both of its terms are
    O(lambda^2) ~ 1e-16.  Past |x| = 1e150, where x^2 nears overflow,
    log1p(x^2) is taken as 2 log|x| + log1p(x^-2).
    """
    x = lam / params.omega
    am1 = params.a - 1.0
    if abs(x) < 1e150:
        log_mod2 = math.log1p(x * x)
    else:
        log_mod2 = 2.0 * math.log(abs(x)) + math.log1p(x ** -2)
    u = 0.5 * am1 * log_mod2
    v = -am1 * math.atan(x)
    re_m1 = math.expm1(u) * math.cos(v) - 2.0 * math.sin(0.5 * v) ** 2
    im = math.exp(u) * math.sin(v)
    b = 2.0 * params.sigma + 1.0
    return re_m1 * (b * re_m1 + b - 1.0) + b * im * im


def _im_il(lam: float, params: PhysParams):
    """I_m = int m/(m^2 + lam^2) dxi and I_lam = lam int 1/(m^2 + lam^2) dxi
    with m(xi) = (2 pi |xi|)^{2s} + omega, by radial quadrature."""
    n, s, om = params.n, params.s, params.omega
    area = sphere_area(n)

    def m_of(rho):
        return (2.0 * math.pi * rho) ** (2.0 * s) + om

    f_m = lambda rho: rho ** (n - 1) * m_of(rho) / (m_of(rho) ** 2 + lam ** 2)
    f_l = lambda rho: rho ** (n - 1) / (m_of(rho) ** 2 + lam ** 2)
    im, _ = integrate_halfline(f_m, 2 * s - (n - 1), rel_tol=1e-12)
    il, _ = integrate_halfline(f_l, 4 * s - (n - 1), rel_tol=1e-12)
    return area * im, lam * area * il


def oracle_eigen_determinant(lam: float, params: PhysParams) -> float:
    """D(lambda) = (a I_m - 1)(b I_m - 1) + a b I_lam^2 with a = c^2 and
    b = (2 sigma + 1) c^2, the integrals by radial quadrature.  Independent
    of the analytic continuation behind eigen_determinant."""
    c2 = sobolev_constant(params)
    a, b = c2, (2 * params.sigma + 1) * c2
    im, il = _im_il(lam, params)
    return (a * im - 1.0) * (b * im - 1.0) + a * b * il * il


def unstable_eigenvalue(params: PhysParams) -> float | None:
    """Positive root of D, or None unless the regime is unstable.

    The root grows like (2 sigma + 1)^{1/(1-a)} omega as a -> 1, so the
    upper bracket doubles for as long as it stays a finite float.
    """
    if stability_regime(params) != "unstable":
        return None
    om = params.omega
    D = lambda lam: eigen_determinant(lam, params)
    # D ~ -2 sigma c^2 Q lam^2 < 0 near 0 and -> 1 at infinity
    hi = om
    while D(hi) < 0:
        hi *= 2.0
        if not math.isfinite(hi):
            raise RootSearchInconclusive(
                "D stays negative up to the largest float: the unstable "
                "eigenvalue is beyond it")
    return find_root(D, Bracket(1e-8 * om, hi), tol=1e-12 * om)


def classify(params: PhysParams, want_unstable_lambda: bool = True) -> SpectralReport:
    """Full spectral report: VK quantity, index counts, classification."""
    c2 = sobolev_constant(params)
    mu_plus = (2 * params.sigma + 1) * c2
    lplus = bound_state(mu_plus, params).eigenvalue
    regime = stability_regime(params)
    lam_star = None
    if regime == "unstable" and want_unstable_lambda:
        lam_star = unstable_eigenvalue(params)
    return SpectralReport(params=params, c2=c2, mu_minus=c2, mu_plus=mu_plus,
                          lplus_negative_eig=lplus,
                          vk_quantity=vk_quantity(params),
                          n_L=1, n_D=int(regime == "stable"),
                          k_r=int(regime == "unstable"),
                          classification=regime,
                          unstable_lambda=lam_star)


# ---------------------------------------------------------------------------
# discretized matrix oracle
# ---------------------------------------------------------------------------

def _symbols(params: PhysParams, grid: OracleGrid):
    xi = grid.fourier_freqs()
    return (2.0 * math.pi * np.abs(xi)) ** (2.0 * params.s) + params.omega


def secular_eigenvalues(mu: float, params: PhysParams,
                        grid: OracleGrid) -> float:
    """Lowest eigenvalue of the discretized L_mu = diag(d_k) - (mu/2L) 11^T:
    the root below the whole diagonal of the secular equation
    1 = (mu/2L) sum_k 1/(d_k - lam), degenerate d_k summed once with their
    multiplicity.
    """
    d = _symbols(params, grid)
    dist, mult = np.unique(d, return_counts=True)
    w2 = 1.0 / (2.0 * grid.half_length)

    def secular(lam):
        return 1.0 - mu * w2 * np.sum(mult / (dist - lam))

    lo = dist[0] - 1.0
    while secular(lo) < 0:
        lo = dist[0] - 2.0 * (dist[0] - lo)
    return find_root(secular, Bracket(lo, dist[0] - 1e-13), tol=1e-13)


def _discrete_sums(lam: float, params: PhysParams, grid: OracleGrid):
    d = _symbols(params, grid)
    w2 = 1.0 / (2.0 * grid.half_length)
    denom = d * d + lam * lam
    s_m = w2 * float(np.sum(d / denom))
    s_l = lam * w2 * float(np.sum(1.0 / denom))
    return s_m, s_l


def discrete_eigen_determinant(lam: float, params: PhysParams,
                               grid: OracleGrid) -> float:
    """Exact characteristic function of the discretized JL problem for the
    modes coupled to the delta node (sums replace the continuum integrals)."""
    c2 = sobolev_constant(params)
    a, b = c2, (2 * params.sigma + 1) * c2
    s_m, s_l = _discrete_sums(lam, params, grid)
    return (a * s_m - 1.0) * (b * s_m - 1.0) + a * b * s_l * s_l


def oracle_unstable_eigenvalue(params: PhysParams, near: float) -> float:
    """Real positive JL eigenvalue of the discretized oracle, proved to lie
    within ORACLE_ROOT_RTOL of `near`: the discrete characteristic function
    D, negative below its positive root and positive above, must change
    sign across near (1 -/+ ORACLE_ROOT_RTOL).

    The estimate is the bracket's secant point refined by one false-position
    step; the secant point alone is off by up to 4e-9 relative, enough to
    change the third digit of a printed error.  Three evaluations of D, so
    a large mode count is cheap.
    """
    grid = OracleGrid(half_length=30.0 * params.omega ** (-1.0 / (2 * params.s)),
                      modes=1 << 22)
    D = lambda lam: discrete_eigen_determinant(lam, params, grid)
    lo, hi = near * (1.0 - ORACLE_ROOT_RTOL), near * (1.0 + ORACLE_ROOT_RTOL)
    d_lo, d_hi = D(lo), D(hi)
    if not d_lo < 0.0 < d_hi:
        raise RootSearchInconclusive(
            f"discrete D does not change sign from - to + across "
            f"[{lo:g}, {hi:g}]: D = {d_lo:g}, {d_hi:g}")
    mid = lo - d_lo * (hi - lo) / (d_hi - d_lo)
    d_mid = D(mid)
    if d_mid < 0.0:
        lo, d_lo = mid, d_mid
    else:
        hi, d_hi = mid, d_mid
    return lo - d_lo * (hi - lo) / (d_hi - d_lo)


def jl_dense_eigenvalues(params: PhysParams, grid: OracleGrid) -> np.ndarray:
    """Spectrum of the discretized JL operator via the quadratic pencil
    lam^2 v = -(L_+ L_-) v, assembled densely (modest mode counts only)."""
    if grid.modes > 2048:
        raise GridTooCoarse("dense JL assembly limited to <= 2048 modes")
    d = _symbols(params, grid)
    w2 = 1.0 / (2.0 * grid.half_length)
    c2 = sobolev_constant(params)
    a, b = c2, (2 * params.sigma + 1) * c2
    ones = np.ones_like(d)
    lm = np.diag(d) - a * w2 * np.outer(ones, ones)
    lp = np.diag(d) - b * w2 * np.outer(ones, ones)
    prod = lp @ lm
    sq = np.linalg.eigvals(prod)
    return np.emath.sqrt(-sq)


def lpm_eigenvalues(params: PhysParams) -> tuple[float, float]:
    """Lowest eigenvalues of the discretized L- and L+ (secular route) on
    the default grid."""
    grid = default_grid(params)
    c2 = sobolev_constant(params)
    minus = secular_eigenvalues(c2, params, grid)
    plus = secular_eigenvalues((2 * params.sigma + 1) * c2, params, grid)
    return minus, plus


def coercivity_gap(params: PhysParams) -> float:
    """Smallest Rayleigh quotient <L_+ v, v>/||v||_{H^s}^2 over discretized
    v orthogonal to the wave profile.  Only defined in the stable regime."""
    if vk_quantity(params) >= 0:
        raise NotApplicable("coercivity gap requires the stable regime (Q < 0)")
    grid = OracleGrid(half_length=15.0 * params.omega ** (-1.0 / (2 * params.s)),
                      modes=1024)
    d = _symbols(params, grid)
    w2 = 1.0 / (2.0 * grid.half_length)
    b = (2 * params.sigma + 1) * sobolev_constant(params)
    ones = np.ones_like(d)
    lp = np.diag(d) - b * w2 * np.outer(ones, ones)
    hs_weight = 1.0 + (d - params.omega)  # 1 + (2 pi |xi|)^{2s}

    # Fourier coefficients of the wave direction: 1/d (up to scale)
    phi = 1.0 / d
    phi /= np.linalg.norm(phi)
    # Householder reflection sending e_0 -> phi; columns 1..N-1 span phi-perp
    v = phi.copy()
    v[0] -= 1.0
    nv = np.linalg.norm(v)
    if nv > 0:
        v /= nv
        reflect = lambda mat: mat - 2.0 * np.outer(v, v @ mat)
    else:
        reflect = lambda mat: mat

    a_full = reflect(reflect(lp).T)      # H lp H
    b_full = reflect(reflect(np.diag(hs_weight)).T)
    from scipy.linalg import eigh
    vals = eigh(a_full[1:, 1:], b_full[1:, 1:], eigvals_only=True,
                subset_by_index=(0, 0))
    return float(vals[0])
