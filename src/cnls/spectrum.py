"""Spectral theory of the linearization: bound states of the delta-well
operator, the Vakhitov-Kolokolov quantity, stability classification, the
unstable eigenvalue of the Hamiltonian problem, and a discretized matrix
oracle.  The production paths are closed forms; the radial quadrature of the
characteristic function and the discretized matrices are kept as oracles.
The closed forms need only `math`; numpy loads on the first oracle call.

The delta-well operator L_mu = (-Delta)^s + omega - mu delta_0 has its point
spectrum governed by the scalar equation mu * M_1(omega +/- lambda) = 1; the
deep-well regime mu > c^2(omega) produces the negative eigenvalue (the
shallow-well bullet labels in the source text are transposed relative to its
own proof, which we follow).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .moments import (FourierGrid, PhysParams, discrete_moment, grid_sum,
                      moment_closed, sobolev_constant, sphere_area)
from .numerics import (DomainError, NumericsError, _in_float_range,
                       _inf_on_overflow, find_root, integrate_halfline)

if TYPE_CHECKING:
    import numpy as np

DEGENERACY_TOL = 1e-12
# half-width, relative to the claimed root, of the oracle's sign-change bracket
ORACLE_ROOT_RTOL = 1e-4


class SpectralReport(NamedTuple):
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


def default_grid(params: PhysParams) -> FourierGrid:
    # L = 60 om^{-1/(2s)} with N=1024 leaves a Fourier cutoff too low for
    # the 1% eigenvalue tolerance; L=15 with N=8192 puts it at ~2 orders
    # of magnitude more headroom.
    return FourierGrid(half_length=15.0 * params.omega ** (-1.0 / (2 * params.s)),
                       modes=8192)


def bound_state(mu: float, params: PhysParams) -> float:
    """Lowest eigenvalue E of L_mu in closed form: negative above
    mu = c^2, 0 at c^2 and positive below.

    mu M_1(omega - E) = 1 with M_1(x) = M_1(omega) (x/omega)^{a-1} gives
    E = omega (1 - (mu/c^2)^{1/(1-a)}) in both regimes.
    """
    if mu <= 0:
        raise DomainError(f"requires mu > 0, got {mu}")
    c2 = sobolev_constant(params)
    if math.isclose(mu, c2, rel_tol=1e-14):
        return 0.0
    return _in_float_range(-params.omega * _inf_on_overflow(
        math.expm1, math.log(mu / c2) / (1.0 - params.a)),
        "bound-state eigenvalue of L_mu (L+ at mu = (2 sigma + 1) c^2)",
        "mu/c^2 = {r:g} raised to 1/(1-a) = {p:g}, omega = {om:g}",
        r=mu / c2, p=1.0 / (1.0 - params.a), om=params.omega)


def sigma_critical(params: PhysParams) -> float:
    """Stability threshold sigma* = 2s/n - 1."""
    return 2.0 * params.s / params.n - 1.0


def vk_quantity(params: PhysParams) -> float:
    """Q = M_3 - ((2 sigma + 1)/(2 sigma)) M_2^2 / M_1, the resolvent pairing
    whose sign decides spectral stability (negative <=> stable).

    The Beta recurrence M_{j+1} = M_j (j - a)/(j omega), a = n/(2s), reduces
    it to Q = M_1 (1 - a) a (sigma - sigma*) / (2 sigma omega^2): one moment
    times the difference sigma - sigma* that stability_regime reads, so the
    sign of Q is the classification's and nothing cancels near sigma*.  The
    three-moment form is verify's independent oracle for it.  A Q beyond
    the float range, or at sigma*, where Q = 0, its scale, is a NumericsError.
    """
    n, s, om, sig = params
    one_minus_a = (2.0 * s - n) / (2.0 * s)
    num = moment_closed(1.0, params) * one_minus_a * params.a
    gap = sig - sigma_critical(params)
    den = 2.0 * sig * om * om
    # |Q|, or at gap = 0 the scale num/den; 1/den is inf where den underflows
    _in_float_range(num * abs(gap or 1.0) * _inf_on_overflow(pow, den, -1.0),
                    "Vakhitov-Kolokolov quantity Q",
                    "2 sigma omega^2 = {den:g} at omega = {om:g}, "
                    "sigma - sigma* = {gap:g}", den=den, om=om, gap=gap)
    return num * gap / den


def stability_regime(params: PhysParams) -> str:
    """stable | unstable | degenerate, from sigma against sigma*; within
    DEGENERACY_TOL of sigma* the cell counts as degenerate.

    Q = M_1 (1 - a) a (sigma - sigma*) / (2 sigma omega^2) (vk_quantity)
    has the sign of sigma - sigma*, and both read this one difference: off
    the degenerate band, the label is the sign of Q.
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
    O(lambda^2) ~ 1e-16.  The second factor is b Re w - 1 with
    Re w = e^u cos v, not b (Re w - 1) + b - 1: at large sigma the root has
    Re w ~ 1/b, and that form would cancel b against b.  Past
    |x| = 1e150, where x^2 nears overflow, log1p(x^2) is taken as
    2 log|x| + log1p(x^-2).
    """
    x = lam / params.omega
    am1 = params.a - 1.0
    if abs(x) < 1e150:
        log_mod2 = math.log1p(x * x)
    else:
        log_mod2 = 2.0 * math.log(abs(x)) + math.log1p(x ** -2)
    u = 0.5 * am1 * log_mod2
    v = -am1 * math.atan(x)
    cos_v, exp_u = math.cos(v), math.exp(u)
    re_m1 = math.expm1(u) * cos_v - 2.0 * math.sin(0.5 * v) ** 2
    im = exp_u * math.sin(v)
    b = 2.0 * params.sigma + 1.0
    return re_m1 * (b * exp_u * cos_v - 1.0) + b * im * im


def _im_il(lam: float, params: PhysParams):
    """I_m = int m/(m^2 + lam^2) dxi and I_lam = lam int 1/(m^2 + lam^2) dxi
    with m(xi) = (2 pi |xi|)^{2s} + omega, by radial quadrature."""
    n, s, om = params.n, params.s, params.omega
    area = sphere_area(n)

    def m_of(rho):
        return (2.0 * math.pi * rho) ** (2.0 * s) + om

    # m/(m^2 + lam^2) as 1/(m + lam^2/m): far out, where m overflows, the
    # term is 0 rather than inf/inf
    f_m = lambda rho: rho ** (n - 1) / (m_of(rho) + lam ** 2 / m_of(rho))
    f_l = lambda rho: rho ** (n - 1) / (m_of(rho) ** 2 + lam ** 2)
    im, _ = integrate_halfline(f_m, rel_tol=1e-12)
    il, _ = integrate_halfline(f_l, rel_tol=1e-12)
    return area * im, lam * area * il


def _characteristic(x: float, y: float, params: PhysParams) -> float:
    """(a x - 1)(b x - 1) + a b y^2 with a = c^2 and b = (2 sigma + 1) c^2:
    D(lambda) given x + i y = M_1(omega - i lambda), from quadrature
    integrals or from grid sums."""
    c2 = sobolev_constant(params)
    a, b = c2, (2 * params.sigma + 1) * c2
    return (a * x - 1.0) * (b * x - 1.0) + a * b * y * y


def oracle_eigen_determinant(lam: float, params: PhysParams) -> float:
    """D(lambda) with I_m + i I_lam = M_1(omega - i lambda) by radial
    quadrature.  Independent of the analytic continuation behind
    eigen_determinant."""
    return _characteristic(*_im_il(lam, params), params)


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
            raise NumericsError(
                "D stays negative up to the largest float: the unstable "
                "eigenvalue is beyond it")
    return find_root(D, 1e-8 * om, hi, tol=1e-12 * om)


def classify(params: PhysParams, want_unstable_lambda: bool = True) -> SpectralReport:
    """Full spectral report: VK quantity, index counts, classification."""
    c2 = sobolev_constant(params)
    mu_plus = _in_float_range((2 * params.sigma + 1) * c2,
                              "mu_+ = (2 sigma + 1) c^2",
                              "sigma = {sig:g}, c^2 = {c2:g}",
                              sig=params.sigma, c2=c2)
    lplus = bound_state(mu_plus, params)
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

def secular_eigenvalues(mu: float, params: PhysParams,
                        grid: FourierGrid) -> float:
    """Lowest eigenvalue of the discretized L_mu = diag(d_k) - (mu/2L) 11^T:
    the root of mu S_1(d - lam) = 1 below the whole diagonal, whose lowest
    entry is d_0 = omega."""
    d = grid.half_symbol(params.s) + params.omega
    om = params.omega

    def secular(lam):
        return 1.0 - mu * discrete_moment(1, d - lam, grid)

    lo = om - 1.0
    while secular(lo) < 0:
        lo = om - 2.0 * (om - lo)
    return find_root(secular, lo, om - 1e-13, tol=1e-13)


def discrete_eigen_determinant(lam: float, params: PhysParams, d: np.ndarray,
                               grid: FourierGrid) -> float:
    """Exact characteristic function of the discretized JL problem for the
    modes coupled to the delta node, on the diagonal d = half_symbol + omega
    of the half spectrum: the grid sums s_m + i s_l = S_1(d - i lam), with
    s_m = (1/2L) sum d r and s_l = (lam/2L) sum r for r = 1/(d^2 + lam^2),
    replace the integrals."""
    import numpy as np
    r = d * d
    r += lam * lam
    np.reciprocal(r, out=r)
    return _characteristic(grid_sum(r, grid, d), lam * grid_sum(r, grid),
                           params)


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
    grid = FourierGrid(half_length=30.0 * params.omega ** (-1.0 / (2 * params.s)),
                       modes=1 << 22)
    d = grid.half_symbol(params.s)
    d += params.omega
    D = lambda lam: discrete_eigen_determinant(lam, params, d, grid)
    lo, hi = near * (1.0 - ORACLE_ROOT_RTOL), near * (1.0 + ORACLE_ROOT_RTOL)
    d_lo, d_hi = D(lo), D(hi)
    if not d_lo < 0.0 < d_hi:
        raise NumericsError(
            f"discrete D does not change sign from - to + across "
            f"[{lo:g}, {hi:g}]: D = {d_lo:g}, {d_hi:g}")
    mid = lo - d_lo * (hi - lo) / (d_hi - d_lo)
    d_mid = D(mid)
    if d_mid < 0.0:
        lo, d_lo = mid, d_mid
    else:
        hi, d_hi = mid, d_mid
    return lo - d_lo * (hi - lo) / (d_hi - d_lo)


def coercivity_gap(params: PhysParams) -> float:
    """Smallest Rayleigh quotient <L_+ v, v>/<(K + omega) v, v> over
    discretized v orthogonal to the wave profile 1/d, in closed form.

    With L_+ = diag(d) - (b/2L) 11^T and b = (2 sigma + 1) c^2 the quotient
    is 1 - (b/2L) (1^T v)^2 / (v^T diag(d) v), and the largest second term
    over v perpendicular to 1/d is b (S_1 - S_2^2/S_3).  The energy norm is
    the H^s norm at omega = 1, and the gap does not depend on omega.  Only
    defined in the stable regime.  As the grid refines, the gap tends to
    the closed kappa = 2a(sigma* - sigma)/(2 - a), a = n/(2s)."""
    regime = stability_regime(params)
    if regime != "stable":
        raise DomainError(f"coercivity gap requires the stable regime, "
                          f"not {regime}")
    grid = FourierGrid(half_length=15.0 * params.omega ** (-1.0 / (2 * params.s)),
                       modes=1024)
    d = grid.half_symbol(params.s) + params.omega
    s1, s2, s3 = (discrete_moment(j, d, grid) for j in (1, 2, 3))
    b = (2 * params.sigma + 1) * sobolev_constant(params)
    return 1.0 - b * (s1 - s2 * s2 / s3)
