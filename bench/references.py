"""Reference values the benchmark checks `cnls` outputs against.

Nothing here imports `cnls`: every value is rebuilt from the model's algebra
with the standard library, numpy and scipy, so a fault in the package cannot
hide by agreeing with itself.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import integrate, optimize, special


def beta_fn(a: float, b: float) -> float:
    """Euler Beta function B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b)."""
    return math.gamma(a) * math.gamma(b) / math.gamma(a + b)


def moment(j: float, n: int, s: float, omega: float) -> float:
    """M_j(omega) = int_{R^n} dxi / ((2 pi |xi|)^{2s} + omega)^j.

    Polar coordinates and t = (2 pi rho)^{2s} / omega turn it into
    |S^{n-1}| / ((2 pi)^n 2s) * omega^{a - j} * B(a, j - a), a = n/(2s).
    """
    a = n / (2.0 * s)
    area = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    return area / ((2.0 * math.pi) ** n * 2.0 * s) * omega ** (a - j) * beta_fn(a, j - a)


def vk_quantity(n: int, s: float, omega: float, sigma: float) -> float:
    """Q = M_3 - (2 sigma + 1)/(2 sigma) M_2^2 / M_1; Q < 0 means stable."""
    m1, m2, m3 = (moment(j, n, s, omega) for j in (1.0, 2.0, 3.0))
    return m3 - (2 * sigma + 1) / (2 * sigma) * m2 * m2 / m1


def sigma_star(n: int, s: float) -> float:
    """Stability threshold sigma* = 2s/n - 1."""
    return 2.0 * s / n - 1.0


def elementary_d(lam, n: int, s: float, omega: float, sigma: float):
    """Characteristic function of the linearization in elementary form.

    With w = (1 - i lam/omega)^{a-1} = c^2 M_1(omega - i lam),
    D(lam) = (Re w - 1)((2 sigma + 1) Re w - 1) + (2 sigma + 1)(Im w)^2.
    """
    a = n / (2.0 * s)
    w = (1.0 - 1j * np.asarray(lam, dtype=float) / omega) ** (a - 1.0)
    b = 2.0 * sigma + 1.0
    return (w.real - 1.0) * (b * w.real - 1.0) + b * w.imag ** 2


# Scan grid for sign changes of D, in units of omega.  Below 1e-4 the
# O(lam^2) value of D sinks towards round-off; above 1e8 D is within 1e-6
# of its limit 1.
_SCAN = np.geomspace(1e-4, 1e8, 600)


def d_sign_changes(n: int, s: float, omega: float, sigma: float) -> list[int]:
    """Indices i of the scan grid where D changes sign on [lam_i, lam_i+1]."""
    vals = elementary_d(_SCAN * omega, n, s, omega, sigma)
    return [int(i) for i in np.nonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0]]


def unstable_root(n: int, s: float, omega: float, sigma: float) -> float | None:
    """The positive root of the elementary D, or None when D keeps one sign."""
    changes = d_sign_changes(n, s, omega, sigma)
    if not changes:
        return None
    if len(changes) > 1:
        raise ValueError(f"D changes sign {len(changes)} times")
    i = changes[0]
    f = lambda lam: float(elementary_d(lam, n, s, omega, sigma))
    return optimize.brentq(f, _SCAN[i] * omega, _SCAN[i + 1] * omega,
                           xtol=1e-300, rtol=4 * np.finfo(float).eps,
                           maxiter=500)


def bound_state(mu: float, n: int, s: float, omega: float) -> float:
    """Lowest eigenvalue of (-Delta)^s + omega - mu delta_0 in closed form.

    mu M_1(omega + e) = 1 with M_1(x) = M_1(omega) (x/omega)^{a-1} gives
    e = omega (1 - (mu/c^2)^{1/(1-a)}), c^2 = 1/M_1(omega).
    """
    a = n / (2.0 * s)
    c2 = 1.0 / moment(1.0, n, s, omega)
    return omega * (1.0 - (mu / c2) ** (1.0 / (1.0 - a)))


def _fourier_weight(f, kind: str, freq: float) -> float:
    """int_0^inf f(k) cos(freq k) dk (or sin): plain adaptive quadrature up
    to a split point, QUADPACK's Fourier-weight rule beyond it.

    From 0, the Fourier rule loses ~1e-6 of the value when f decays slowly
    and freq is small; from one period on, its cycle extrapolation still
    stalls now and then, which its error estimate reports.  So the split
    moves out until the estimate is small.
    """
    trig = math.cos if kind == "cos" else math.sin
    with warnings.catch_warnings():
        # a stalled extrapolation warns; its error estimate is checked below
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for periods in (1, 2, 4, 8):
            split = 2.0 * math.pi * periods / freq
            head, head_err = integrate.quad(lambda k: f(k) * trig(freq * k), 0.0, split,
                                            limit=1000, epsabs=1e-15, epsrel=1e-13)
            tail, tail_err = integrate.quad(f, split, np.inf, weight=kind, wvar=freq,
                                            epsabs=1e-13, limlst=200, limit=400)
            if head_err + tail_err < 1e-11:
                return head + tail
    raise ArithmeticError(f"no accurate {kind} transform at frequency {freq}")


def greens(r: float, lam: float, n: int, s: float) -> float:
    """Green's function of (-Delta)^s + lam at distance r, for n in {1, 2, 3}.

    n = 1 and n = 3 integrate the cos and sin transforms with QUADPACK;
    n = 2 exists here only at s = 2, through the Kelvin function:
    G = -kei(lam^{1/4} r) / (2 pi sqrt(lam)).
    """
    if r == 0.0:
        return moment(1.0, n, s, lam)
    two_s = 2.0 * s
    if n == 1:
        # (1/pi) int_0^inf cos(k r) / (k^{2s} + lam) dk
        return _fourier_weight(lambda k: 1.0 / (k ** two_s + lam), "cos", r) / math.pi
    if n == 3:
        # (1/(2 pi^2 r)) int_0^inf k sin(k r) / (k^{2s} + lam) dk
        return (_fourier_weight(lambda k: k / (k ** two_s + lam), "sin", r)
                / (2.0 * math.pi ** 2 * r))
    if n == 2 and s == 2.0:
        return -float(special.kei(lam ** 0.25 * r)) / (2.0 * math.pi * math.sqrt(lam))
    raise ValueError(f"no Green's function reference for n={n}, s={s}")


def profile(radii, n: int, s: float, omega: float, sigma: float) -> np.ndarray:
    """Solitary wave phi(r) = G(r) / M_1^{1 + 1/(2 sigma)}; phi(0) = M_1^{-1/(2 sigma)}."""
    norm = moment(1.0, n, s, omega) ** (1.0 + 1.0 / (2.0 * sigma))
    return np.array([greens(float(r), omega, n, s) for r in radii]) / norm


class SplitStep:
    """Strang split-step for i u_t = (-d_xx)^{s} u - delta_h |u|^{2 sigma} u
    on the periodic grid [-L, L) with M nodes and a 1/h delta at x = 0.

    Half a Fourier phase, the exact rotation of the centre node, half a
    phase.  The initial state is the exact discrete standing wave plus the
    perturbation the simulator's config names.
    """

    def __init__(self, s, omega, sigma, half_length, modes, dt):
        self.sigma, self.omega = sigma, omega
        self.modes, self.dt = modes, dt
        self.h = 2.0 * half_length / modes
        self.centre = modes // 2
        xi = np.fft.fftfreq(modes, d=self.h)
        self.xi = xi
        self.symbol = (2.0 * math.pi * np.abs(xi)) ** (2.0 * s)
        self.half_phase = np.exp(-1j * self.symbol * dt / 2.0)
        self.half_length = half_length

    def _greens(self, lam):
        delta = np.zeros(self.modes)
        delta[self.centre] = 1.0 / self.h
        return np.real(np.fft.ifft(np.fft.fft(delta) / (self.symbol + lam)))

    def hs_norm(self, u) -> float:
        uh = np.fft.fft(u)
        return math.sqrt(self.h / self.modes
                         * float(np.sum((1.0 + self.symbol) * np.abs(uh) ** 2)))

    def wave(self) -> np.ndarray:
        sig = self.sigma
        disc_m1 = np.sum(1.0 / (self.symbol + self.omega)) / (2.0 * self.half_length)
        return disc_m1 ** (-(2 * sig + 1) / (2 * sig)) * self._greens(self.omega) + 0j

    def initial(self, eps: float, shape: str, seed: int) -> np.ndarray:
        phi = self.wave()
        if eps == 0.0:
            return phi
        if shape == "greens-bump":
            bump = self._greens(2.0 * self.omega) + 0j
        else:
            rng = np.random.default_rng(seed)
            raw = rng.standard_normal(self.modes) + 1j * rng.standard_normal(self.modes)
            bump = np.fft.ifft(np.fft.fft(raw) * np.exp(-(2 * math.pi * self.xi) ** 2))
        return phi + bump * (eps * self.hs_norm(phi) / self.hs_norm(bump))

    def centre_moduli(self, u, steps: int, every: int) -> np.ndarray:
        """|u(t, 0)| at t = 0 and after every `every` steps, `steps` in all."""
        out = [abs(u[self.centre])]
        j0, kick = self.centre, self.dt / self.h
        for k in range(1, steps + 1):
            u = np.fft.ifft(self.half_phase * np.fft.fft(u))
            u[j0] *= np.exp(1j * abs(u[j0]) ** (2 * self.sigma) * kick)
            u = np.fft.ifft(self.half_phase * np.fft.fft(u))
            if k % every == 0:
                out.append(abs(u[j0]))
        return np.array(out)
