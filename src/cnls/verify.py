"""Invariant suite behind the `verify` CLI command.

Each check re-derives a closed-form claim from an independent route
(quadrature oracle, discretized matrix, or classical special case) and
compares at a stated tolerance.  One CheckResult per claim.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from .dynamics import (SimConfig, discrete_energy, discrete_mass, init_state,
                       step)
from .moments import (PhysParams, moment_closed, moment_quadrature,
                      sobolev_constant)
from .numerics import _linspace, _map_jobs
from .spectrum import (DEGENERACY_TOL, ORACLE_ROOT_RTOL, bound_state,
                       classify, default_grid, eigen_determinant,
                       oracle_eigen_determinant, oracle_unstable_eigenvalue,
                       secular_eigenvalues, sigma_critical,
                       unstable_eigenvalue, vk_quantity)
from .variational import convergence_study
from .waves import pohozaev_check, sobolev_constant_printed_check


# Each check's gates, written once: the comparison reads them and the
# printed detail formats them with _sci.
MOMENT_RTOL = 1e-10              # closed-form vs quadrature moments
MOMENT_EXACT_TOL = 1e-14         # the exact n = s = omega = 1 moments
SOBOLEV_EXACT_TOL = 1e-12        # c^2 = 2 at the classical point
SOBOLEV_FORMULA_RTOL = 1e-10     # corrected embedding-constant formula
POHOZAEV_TOL = 1e-8              # quadrature identity residuals
POHOZAEV_EXACT_TOL = 1e-12       # mass = seminorm = 2 at the classical point
VK_FRACTION_TOL = 1e-12          # exact rational values of Q
DELTA_WELL_TOL = 1e-10           # classical delta-well eigenvalue
LPLUS_RTOL = 1e-2                # secular vs semi-analytic L+ eigenvalue
ROOT_D_TOL = 1e-10               # quadrature |D| at the closed-form roots
LIMIT_CLOSED_RTOL = 1e-6         # D/lambda^2 limit, closed-form D
LIMIT_QUADRATURE_RTOL = 1e-3     # D/lambda^2 limit, quadrature D
LEVEL_MARGIN = 1e-8              # m_N may undershoot c^2 by this much
MASS_DRIFT_TOL = 1e-10           # split-step mass drift over 1e4 steps
ENERGY_RATIO_RANGE = (3.0, 5.0)  # energy drift ratio under dt halving


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float | None = None  # wall time of the check, set by run_all


def _result(name, passed, detail):
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def _sci(x: float) -> str:
    """A one-digit tolerance the way the details print it: 1e-4."""
    mant, _, exp = f"{x:.0e}".partition("e")
    return f"{mant}e{int(exp)}"


def check_moment_oracle() -> CheckResult:
    """Closed-form moments vs half-line quadrature on a (n,s,j,omega) grid,
    plus the exact n=1, s=1, omega=1 values (1/2, 1/4, 3/16)."""
    worst = 0.0
    for n in (1, 2, 3):
        for s in (0.6 * n, 1.1 * n, 2.0 * n):
            for j in (1.0, 2.0, 3.0):
                for om in (0.5, 1.0, 2.0):
                    p = PhysParams(n=n, s=s, omega=om, sigma=1.0)
                    closed = moment_closed(j, p)
                    quad = moment_quadrature(j, p)
                    worst = max(worst, abs(closed - quad) / abs(closed))
    p = PhysParams(n=1, s=1.0, omega=1.0, sigma=1.0)
    exact = (0.5, 0.25, 0.1875)
    exact_err = max(abs(moment_closed(j, p) - e)
                    for j, e in zip((1.0, 2.0, 3.0), exact))
    ok = worst < MOMENT_RTOL and exact_err < MOMENT_EXACT_TOL
    return _result("moment-oracle", ok,
                   f"worst closed-vs-quadrature rel err {worst:.2e} "
                   f"(tol {_sci(MOMENT_RTOL)}); exact-triple err "
                   f"{exact_err:.2e} (tol {_sci(MOMENT_EXACT_TOL)})")


def check_sobolev_constant() -> CheckResult:
    """c^2(1;1,1) = 2 exactly; corrected embedding-constant formula (x 2s)
    equals 1/M_1(1) across dimensions."""
    p = PhysParams(n=1, s=1.0, omega=1.0, sigma=1.0)
    err_classic = abs(sobolev_constant(p) - 2.0)
    worst = 0.0
    for n in (1, 2, 3):
        for s in (0.6 * n + 0.1, float(n), 2.0 * n):
            corrected, _ = sobolev_constant_printed_check(n, s)
            c2 = sobolev_constant(PhysParams(n=n, s=s, omega=1.0, sigma=1.0))
            worst = max(worst, abs(corrected - c2) / c2)
    ok = err_classic < SOBOLEV_EXACT_TOL and worst < SOBOLEV_FORMULA_RTOL
    return _result("sobolev-constant", ok,
                   f"classical-case err {err_classic:.2e} "
                   f"(tol {_sci(SOBOLEV_EXACT_TOL)}); corrected-formula rel "
                   f"err {worst:.2e} (tol {_sci(SOBOLEV_FORMULA_RTOL)})")


def check_pohozaev() -> CheckResult:
    """Mass/seminorm/energy identity residuals by quadrature over a grid;
    exact mass = seminorm = 2 at the classical point."""
    worst = 0.0
    for n in (1, 2, 3):
        for s in (0.6 * n + 0.1, float(n), 2.0 * n):
            for om in (0.5, 2.0):
                for sig in (0.5, 1.0, 2.0):
                    p = PhysParams(n=n, s=s, omega=om, sigma=sig)
                    r = pohozaev_check(p, use_quadrature=True)
                    worst = max(worst, r.residual_mass_identity,
                                r.residual_seminorm_identity,
                                r.residual_energy_identity)
    p = PhysParams(n=1, s=1.0, omega=1.0, sigma=1.0)
    r = pohozaev_check(p)
    exact_err = max(abs(r.l2_mass - 2.0), abs(r.homog_seminorm_sq - 2.0))
    ok = worst < POHOZAEV_TOL and exact_err < POHOZAEV_EXACT_TOL
    return _result("pohozaev", ok,
                   f"worst residual {worst:.2e} (tol {_sci(POHOZAEV_TOL)}); "
                   f"classical mass/seminorm err {exact_err:.2e} "
                   f"(tol {_sci(POHOZAEV_EXACT_TOL)})")


def check_vk_fractions() -> CheckResult:
    """Exact rational values of Q at n=1, s=1, omega=1."""
    errs = []
    for sig, q_exact in ((1.0, 0.0), (2.0, 1.0 / 32.0), (0.5, -1.0 / 16.0)):
        q = vk_quantity(PhysParams(n=1, s=1.0, omega=1.0, sigma=sig))
        errs.append(abs(q - q_exact))
    ok = max(errs) < VK_FRACTION_TOL
    return _result("vk-fractions", ok,
                   f"errors {[f'{e:.2e}' for e in errs]} "
                   f"(tol {_sci(VK_FRACTION_TOL)})")


def _three_moment_vk_quantity(params: PhysParams) -> float:
    """Q = M_3 - ((2 sigma + 1)/(2 sigma)) M_2^2 / M_1 from three Beta
    moments: the oracle for the classification, which reads sigma - sigma*
    (as the factored vk_quantity does).  The difference cancels near
    sigma*, so only its sign off the degenerate band is compared."""
    m1 = moment_closed(1.0, params)
    m2 = moment_closed(2.0, params)
    m3 = moment_closed(3.0, params)
    sig = params.sigma
    return m3 - (2 * sig + 1) / (2 * sig) * m2 * m2 / m1


def check_stability_boundary() -> CheckResult:
    """Zero misclassified cells against the sign of Q from three
    Beta-function moments on a 25 x 40 (s, sigma) map per dimension, the
    degenerate band around sigma* = 2s/n - 1 excluded."""
    bad = 0
    total = 0
    sig_grid = _linspace(0.1, 4.0, 40)
    for n in (1, 2, 3):
        for s in _linspace(0.6 * n, 3.0 * n, 25):
            for sig in sig_grid:
                p = PhysParams(n=n, s=s, omega=1.0, sigma=sig)
                crit = sigma_critical(p)
                if abs(sig - crit) <= DEGENERACY_TOL:
                    continue
                rep = classify(p, want_unstable_lambda=False)
                want = ("unstable" if _three_moment_vk_quantity(p) > 0
                        else "stable")
                total += 1
                if rep.classification != want:
                    bad += 1
    return _result("stability-boundary", bad == 0,
                   f"{bad} misclassified of {total} non-degenerate cells")


def check_bound_state_oracle() -> CheckResult:
    """Classical delta-well eigenvalue omega - mu^2/4 = -3 at mu=4, and the
    discretized secular oracle for the lowest L_+ eigenvalue at sigma=1."""
    p = PhysParams(n=1, s=1.0, omega=1.0, sigma=1.0)
    err_well = abs(bound_state(4.0, p) - (-3.0))
    mu_plus = (2 * p.sigma + 1) * sobolev_constant(p)
    plus = secular_eigenvalues(mu_plus, p, default_grid(p))
    semi = bound_state(mu_plus, p)
    rel = abs(plus - semi) / abs(semi)
    ok = err_well < DELTA_WELL_TOL and rel < LPLUS_RTOL
    return _result("bound-state-oracle", ok,
                   f"delta-well err {err_well:.2e} "
                   f"(tol {_sci(DELTA_WELL_TOL)}); L+ lowest {plus:.4f} "
                   f"vs semi-analytic {semi:.4f}, "
                   f"rel {rel:.2e} (tol {_sci(LPLUS_RTOL)})")


def check_linearized_eigenvalue() -> CheckResult:
    """Root of the elementary characteristic function D vs the discretized
    oracle, whose D changes sign across lambda (1 -/+ ORACLE_ROOT_RTOL): a
    sign-change bracket that holds a discrete root within that tolerance;
    the quadrature D vanishes at those roots; and both D routes obey the
    small-lambda limit D/lambda^2 -> -2 sigma c^2 Q."""
    worst_root = 0.0
    worst_quad = 0.0
    for sig in (1.5, 2.0, 3.0):
        p = PhysParams(n=1, s=1.0, omega=1.0, sigma=sig)
        lam = unstable_eigenvalue(p)
        lam_oracle = oracle_unstable_eigenvalue(p, near=lam)
        worst_root = max(worst_root, abs(lam - lam_oracle) / lam)
        worst_quad = max(worst_quad, abs(oracle_eigen_determinant(lam, p)))
    lim = {eigen_determinant: 0.0, oracle_eigen_determinant: 0.0}
    for sig in (0.5, 2.0):
        p = PhysParams(n=1, s=1.0, omega=1.0, sigma=sig)
        c2 = sobolev_constant(p)
        target = -2.0 * sig * c2 * vk_quantity(p)
        for D in lim:
            got = D(1e-4, p) / 1e-8
            lim[D] = max(lim[D], abs(got - target) / abs(target))
    lim_closed, lim_quad = lim.values()
    ok = (worst_root < ORACLE_ROOT_RTOL and worst_quad < ROOT_D_TOL
          and lim_closed < LIMIT_CLOSED_RTOL
          and lim_quad < LIMIT_QUADRATURE_RTOL)
    return _result("linearized-eigenvalue", ok,
                   f"worst root rel err {worst_root:.2e} "
                   f"(tol {_sci(ORACLE_ROOT_RTOL)}); "
                   f"quadrature |D| at roots {worst_quad:.2e} "
                   f"(tol {_sci(ROOT_D_TOL)}); "
                   f"small-lambda limit rel err {lim_closed:.2e} closed "
                   f"(tol {_sci(LIMIT_CLOSED_RTOL)}), {lim_quad:.2e} "
                   f"quadrature (tol {_sci(LIMIT_QUADRATURE_RTOL)})")


def check_variational_convergence() -> CheckResult:
    """m_N stays above c^2 - LEVEL_MARGIN and its gap decreases
    monotonically over the mollifier scales 4, 8, 16, 32."""
    p = PhysParams(n=1, s=1.0, omega=1.0, sigma=1.0)
    c2 = sobolev_constant(p)
    rows = convergence_study(p, (4, 8, 16, 32))
    gaps = [r["gap"] for r in rows]
    above = all(r["m_N"] >= c2 - LEVEL_MARGIN for r in rows)
    monotone = all(g1 > g2 > 0 for g1, g2 in zip(gaps, gaps[1:]))
    ok = above and monotone
    return _result("variational-convergence", ok,
                   "gaps " + ", ".join(f"{g:.4f}" for g in gaps)
                   + f" toward c^2={c2:g} (monotone={monotone}); smallest "
                   f"m_N - c^2 {min(gaps):.2e} (want >= -{_sci(LEVEL_MARGIN)})")


def check_dynamics_conservation() -> CheckResult:
    """Fast half of the dynamics suite: exact mass conservation over 1e4
    steps and second-order energy drift under dt halving."""
    cfg = SimConfig(n=1, s=1.0, omega=1.0, sigma=0.5, half_length=40.0,
                    modes=1024, dt=1e-3, t_final=10.0)
    v = init_state(cfg)
    m0 = discrete_mass(v, cfg)
    for _ in range(10_000):
        v = step(v, cfg)
    drift = abs(discrete_mass(v, cfg) - m0) / m0

    def energy_drift(dt):
        c = SimConfig(n=1, s=1.0, omega=1.0, sigma=0.5, half_length=40.0,
                      modes=1024, dt=dt, t_final=2.0, eps=0.3, shape="noise",
                      seed=7)
        v = init_state(c)
        e0, mx = discrete_energy(v, c), 0.0
        for _ in range(int(round(2.0 / dt))):
            v = step(v, c)
            mx = max(mx, abs(discrete_energy(v, c) - e0) / abs(e0))
        return mx

    d1, d2 = energy_drift(4e-4), energy_drift(2e-4)
    ratio = d1 / d2
    lo, hi = ENERGY_RATIO_RANGE
    ok = drift < MASS_DRIFT_TOL and lo <= ratio <= hi
    return _result("dynamics-conservation", ok,
                   f"mass drift {drift:.2e} over 1e4 steps "
                   f"(tol {_sci(MASS_DRIFT_TOL)}); "
                   f"energy drift ratio {ratio:.2f} (want [{lo:g},{hi:g}])")


ALL_CHECKS = (
    check_moment_oracle,
    check_sobolev_constant,
    check_pohozaev,
    check_vk_fractions,
    check_stability_boundary,
    check_bound_state_oracle,
    check_linearized_eigenvalue,
    check_variational_convergence,
    check_dynamics_conservation,
)


def _run(check) -> CheckResult:
    start = time.perf_counter()
    result = check()
    return replace(result, seconds=time.perf_counter() - start)


def run_all(jobs: int = 1) -> list[CheckResult]:
    return _map_jobs(_run, ALL_CHECKS, jobs)
