"""Self-contained numerical primitives: half-line quadrature by the exp-sinh
rule (the package's one half-line integrator), log-Gamma/Beta, root finding
by bisection of a sign-changing bracket (the package's one root finder),
numpy's linspace in plain Python, the `--jobs` process map, and the
package's three exception classes.

Every failure the package raises is a NumericsError, and two classes decide
the CLI's exit code.  A DomainError means a value from the caller lies
outside the model's or the command's range (the CLI exits 2).  A plain
NumericsError means the computation on valid input failed: a quadrature or
iteration that does not converge, a root search with no bracket, or a value
that leaves the float range (the CLI exits 1).  BlowUp is the NumericsError
of a simulated field that became non-finite; it carries the time t.

All routines are pure functions; nothing here holds mutable state.  The
module imports without numpy: numpy loads on the first quadrature call, and
the process pool only when `--jobs` asks for more than one worker.  The
package's checked records (in moments) are NamedTuples built on `_Record`,
not dataclasses, for the same reason.
"""

from __future__ import annotations

import math
import os


class NumericsError(Exception):
    pass


class DomainError(NumericsError):
    pass


class BlowUp(NumericsError):
    def __init__(self, t):
        super().__init__(f"non-finite field at t={t:g}")
        self.t = t


class _Record:
    """Mixin for a NamedTuple record whose `__new__` checks its fields.

    NamedTuple forbids `__new__` in its own class body, so a checked record
    subclasses its fields tuple and this mixin.  `_make`, and so `_replace`,
    build through that `__new__`, and unpickling calls it too: every
    instance has passed the checks.
    """
    __slots__ = ()

    @classmethod
    def _make(cls, values):
        return cls(*values)


# exp-sinh rule of integrate_halfline: nodes on |t| <= HALFLINE_T_MAX, the
# step halved from HALFLINE_STEP at most MAX_HALVINGS times
HALFLINE_T_MAX = 6.5
HALFLINE_STEP = 1.0 / 8.0
MAX_HALVINGS = 8


def integrate_halfline(f, rel_tol: float):
    """Integrate a vectorized f over (0, inf) by the exp-sinh rule.

    The double-exponential substitution y = exp((pi/2) sinh t) makes both an
    algebraic tail at infinity and a non-smooth power at 0 decay doubly
    exponentially in t.  The step halves from HALFLINE_STEP until two sums
    agree to rel_tol; returns (value, |S_h - S_2h|).  The nodes of step 2h
    are the even nodes of step h, so each halving evaluates f only on the
    new odd nodes and S_h = S_2h/2 + h sum_new.  A non-finite term (an
    overflow far out, where the exact term is below the float range) counts
    as 0.  If the outermost non-zero term of a step's nodes on either side
    still exceeds rel_tol |sum|, the integrand has not decayed inside the
    window (its tail is too slow, or it overflowed to 0 first) and
    NumericsError is raised.
    """
    import numpy as np

    def terms(t):
        # f(y) dy/dt at the nodes t, without the step h
        y = np.exp(0.5 * math.pi * np.sinh(t))
        with np.errstate(all="ignore"):
            g = np.asarray(f(y), dtype=float) * (0.5 * math.pi * np.cosh(t) * y)
        return np.where(np.isfinite(g), g, 0.0)

    def check_decay(g, h, total):
        nonzero = g[g != 0.0]
        if nonzero.size and h * max(abs(nonzero[0]), abs(nonzero[-1])) \
                > rel_tol * abs(total):
            raise NumericsError(
                "integrand has not decayed at the ends of the exp-sinh window "
                "(tail too slow, or overflow before decay)")

    h = HALFLINE_STEP
    n = math.ceil(HALFLINE_T_MAX / h)  # nodes t = k h, |k| <= n
    g = terms(h * np.arange(-n, n + 1))
    prev = h * float(np.sum(g))
    check_decay(g, h, prev)
    for _ in range(MAX_HALVINGS):
        h *= 0.5
        n *= 2
        new = terms(h * np.arange(1 - n, n, 2))  # the odd k
        value = 0.5 * prev + h * float(np.sum(new))
        merged = np.empty(2 * n + 1)
        merged[0::2], merged[1::2] = g, new
        g = merged
        check_decay(g, h, value)
        err = abs(value - prev)
        if err <= rel_tol * abs(value):
            return value, err
        prev = value
    raise NumericsError(
        f"exp-sinh sums still differ by {err:g} at step {h:g}")


def ln_gamma(x: float) -> float:
    """log Gamma(x) for x > 0 (delegated to the C library implementation)."""
    if x <= 0:
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def beta(a: float, b: float) -> float:
    """Euler Beta function B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b), a,b > 0.

    Evaluation order is symmetrized so beta(a, b) == beta(b, a) exactly.
    Below a + b = 171, where Gamma is finite, the Gamma values are divided
    and multiplied directly: each carries a few ulps, while log Gamma of an
    argument x -> 0 grows like -log x and its rounding would swamp the
    small net exponent.
    """
    if a <= 0 or b <= 0:
        raise DomainError(f"beta requires positive arguments, got ({a}, {b})")
    lo, hi = (a, b) if a <= b else (b, a)
    if lo + hi < 171.0:
        return math.gamma(lo) / math.gamma(lo + hi) * math.gamma(hi)
    return math.exp(ln_gamma(lo) + ln_gamma(hi) - ln_gamma(lo + hi))


def find_root(f, lo: float, hi: float, tol: float) -> float:
    """Root of f inside a sign-changing bracket [lo, hi], by bisection down
    to a bracket narrower than tol or to adjacent floats."""
    if not lo < hi:  # NaN fails this too
        raise DomainError(f"bracket requires lo < hi, got [{lo}, {hi}]")
    lo, hi = float(lo), float(hi)
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    # compare signs, not products: a product of two tiny values underflows
    # to zero and would steer the bracket the wrong way
    if (flo < 0) == (fhi < 0):
        raise NumericsError(f"f({lo})={flo:g} and f({hi})={fhi:g} "
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


def _linspace(lo: float, hi: float, count: int) -> list[float]:
    """The values of numpy's linspace(lo, hi, count), formed by the same
    float operations, for count >= 1."""
    if count == 1:
        return [0.0 * (hi - lo) + lo]
    delta, div = hi - lo, count - 1
    step = delta / div
    if step == 0:  # a subnormal step: scale the fraction, not the step
        values = [i / div * delta + lo for i in range(count)]
    else:
        values = [i * step + lo for i in range(count)]
    values[-1] = hi
    return values


def _map_jobs(fn, items, jobs: int, chunksize: int = 1) -> list:
    """[fn(x) for x in items], spread over at most min(jobs, cpu count)
    worker processes; one worker means no pool.  fn must be picklable (a
    module-level function), and the result order is that of items."""
    if jobs < 1:
        raise DomainError(f"--jobs must be >= 1, got {jobs}")
    workers = min(jobs, os.cpu_count() or 1)
    if workers == 1:
        return [fn(x) for x in items]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=multiprocessing.get_context("spawn")
                             ) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))
