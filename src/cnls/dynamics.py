"""Split-step spectral simulator for the 1-D Schrodinger equation with a
point-concentrated nonlinearity, i u_t = ((-Delta)^s - |u|^{2 sigma} delta_0) u.

Strang splitting: half a linear Fourier phase, the exact point-nonlinearity
rotation at the x=0 node (grid delta of weight 1/h), half a linear phase.
Both substeps are isometries, so the discrete mass is conserved to round-off.
The exact discrete standing wave is u(t) = e^{+i omega t} phi.

The state is the spectrum v = fft(u), and the scheme runs on it without an
FFT.  The rotation changes the one centre node j0 = M/2, whose Fourier vector
is (-1)^k, so in Fourier space it is the rank-one update
v += q (e^{i theta} - 1) (-1)^k, with q = <(-1)^k, v>/M = u(j0) and
theta = |q|^{2 sigma} dt/h.  With P = exp(-i symbol dt/2) the half phase,
the whole step is v <- P^2 v + q (e^{i theta} - 1) P (-1)^k, where
q = <P (-1)^k, v>/M is the centre value after the first half phase: one
phase multiply per step.  The diagnostics (mass by Parseval, energy, centre
modulus, modulated distance) read the spectrum as well.  It is the whole
state: `step` maps it to the next one, and `run_experiment` sums the time.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .moments import FourierGrid, PhysParams, discrete_moment
from .numerics import (BlowUp, DomainError, _in_float_range,
                       _inf_on_overflow)


@dataclass(frozen=True)
class SimConfig:
    """One simulate run, and the schema of a `simulate` config file: each
    field is one key.  The model parameters n, s, omega, sigma are read
    through `params`; eps, shape and seed perturb the initial wave."""
    n: int = 1
    s: float = 1.0
    omega: float = 1.0
    sigma: float = 1.0
    half_length: float = 40.0
    modes: int = 1024
    dt: float = 1e-3
    t_final: float = 10.0
    eps: float = 0.0
    shape: str = "greens-bump"  # greens-bump | noise
    seed: int = 0
    sample_every: int = 100

    def __post_init__(self):
        params = self.params  # checks n, s, omega and sigma
        if not 0.0 <= self.eps <= 0.5:
            raise DomainError("perturbation amplitude must lie in [0, 0.5]")
        if self.shape not in ("greens-bump", "noise"):
            raise DomainError(f"unknown perturbation shape {self.shape!r}")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        if params.n != 1:
            raise DomainError("the simulator is 1-D only")
        if self.modes < 2 or self.modes & (self.modes - 1):
            raise DomainError("modes must be a power of two >= 2")
        if not all(math.isfinite(v) and v > 0
                   for v in (self.dt, self.t_final, self.half_length)):
            raise DomainError("dt, t_final, half_length must be finite and "
                              "positive")
        if not math.isfinite(self.t_final / self.dt) or self.n_steps < 1:
            raise DomainError(f"t_final / dt = {self.t_final / self.dt:g} "
                              "must round to a finite step count >= 1")
        if self.sample_every < 1:
            raise DomainError("sample_every must be >= 1")
        # resonance-stability threshold of the splitting: the fastest mode
        # must rotate by less than pi per step or the point coupling pumps
        # energy into it without bound
        mu_max = _inf_on_overflow(pow, math.pi * self.modes
                                  / (2.0 * self.half_length), 2.0 * params.s)
        if self.dt * mu_max >= math.pi:
            raise DomainError(
                f"dt*mu_max = {self.dt * mu_max:.2f} >= pi: reduce dt below "
                f"{math.pi / mu_max:.2e} or coarsen the grid")

    @cached_property
    def params(self) -> PhysParams:
        return PhysParams(n=self.n, s=self.s, omega=self.omega,
                          sigma=self.sigma)

    @property
    def n_steps(self) -> int:
        """Steps of a run: t_final / dt, rounded to the nearest integer."""
        return int(round(self.t_final / self.dt))

    @cached_property
    def grid(self) -> FourierGrid:
        return FourierGrid(self.half_length, self.modes)

    @property
    def h(self) -> float:
        return self.grid.h

    @cached_property
    def symbol(self) -> np.ndarray:
        """Fourier symbol |2 pi xi|^{2s} of (-Delta)^s on the grid, built once
        per config (cached_property writes the instance __dict__, which a
        frozen dataclass allows) and read-only, since every caller shares it."""
        return _read_only(self.grid.symbol(self.params.s))

    @cached_property
    def half_phase(self) -> np.ndarray:
        """Linear half-step propagator P = exp(-i symbol dt/2)."""
        return _read_only(np.exp(-1j * self.symbol * self.dt / 2.0))

    @cached_property
    def phase(self) -> np.ndarray:
        """P^2: the two half phases of one Strang step, applied as one."""
        return _read_only(self.half_phase * self.half_phase)

    @cached_property
    def centre_sign(self) -> np.ndarray:
        """(-1)^k: the spectrum of the unit vector at the centre node, and
        (over M) the row that reads u(j0) off a spectrum.  Complex, so the
        dot product with a spectrum is one BLAS call."""
        return _read_only(
            np.where(np.arange(self.modes) % 2 == 0, 1.0, -1.0) + 0j)

    @cached_property
    def kick_row(self) -> np.ndarray:
        """P (-1)^k: over M, the row that reads the centre value after a
        half phase off a spectrum, and the direction of the kick after the
        second half phase."""
        return _read_only(self.half_phase * self.centre_sign)


@dataclass(frozen=True)
class TimeSeries:
    times: np.ndarray
    mass_drift: np.ndarray
    energy_drift: np.ndarray
    center_modulus: np.ndarray
    mod_distance: np.ndarray
    growth_rate: float | None = None
    blow_up_time: float | None = None


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, locked against writes: the cached arrays of a SimConfig are
    shared by every caller."""
    a.flags.writeable = False
    return a


def centre_value(v, cfg: SimConfig) -> complex:
    """u at the centre node, read off the spectrum: <(-1)^k, v>/M."""
    return complex(np.dot(cfg.centre_sign, v)) / cfg.modes


def discrete_mass(v, cfg: SimConfig) -> float:
    """h sum |u|^2, by Parseval h/M sum |v|^2 = h/M Re <v, v>."""
    return cfg.h / cfg.modes * np.vdot(v, v).real


def discrete_energy(v, cfg: SimConfig) -> float:
    """h/(2M) sum symbol |v|^2 - |u(j0)|^{2 sigma + 2}/(2 sigma + 2)."""
    kin = 0.5 * cfg.h / cfg.modes * np.vdot(v, cfg.symbol * v).real
    sig = cfg.params.sigma
    pot = _inf_on_overflow(pow, abs(centre_value(v, cfg)),
                           2 * sig + 2) / (2 * sig + 2)
    return kin - pot


def _greens_spectrum(cfg: SimConfig, lam: float) -> np.ndarray:
    """Spectrum of the grid Green's function (K_h + lam)^{-1} delta_h, where
    delta_h = 1/h at x=0 has spectrum (-1)^k / h."""
    return cfg.centre_sign / (cfg.h * (cfg.symbol + lam))


def _wave_spectrum(cfg: SimConfig) -> np.ndarray:
    """Spectrum of the exact standing-wave profile of the *discretized* flow.

    phi_hat is proportional to 1/(mu_k + omega); the amplitude is fixed by the
    self-consistency phi(0)^{2 sigma} amplitude = amplitude itself, giving
    A = S_1^{-(2 sigma + 1)/(2 sigma)} with S_1 the discrete moment
    (1/2L) sum 1/(mu_k + omega).  Converges to the continuum wave as the grid
    refines, and makes the split-step drift a pure splitting error.
    """
    om, sig = cfg.params.omega, cfg.params.sigma
    s_disc = discrete_moment(1, cfg.grid.half_symbol(cfg.params.s) + om,
                             cfg.grid)
    amp = _in_float_range(
        _inf_on_overflow(pow, s_disc, -(2 * sig + 1) / (2 * sig)),
        "wave amplitude S_1^(-(2 sigma + 1)/(2 sigma))",
        f"S_1 = {s_disc:g}, sigma = {sig:g}")
    return amp * _greens_spectrum(cfg, om)


def _hs_inner(v, w, cfg: SimConfig):
    """Discrete H^s pairing of two spectra, sum (1 + symbol) conj(w) v * h/M."""
    return cfg.h / cfg.modes * np.sum((1.0 + cfg.symbol) * np.conj(w) * v)


def _hs_norm(v, cfg: SimConfig) -> float:
    return math.sqrt(abs(_hs_inner(v, v, cfg)))


def modulated_distance(v, phi, cfg: SimConfig) -> float:
    """min over theta of the discrete H^s distance ||u - e^{i theta} phi||,
    from the spectra v of u and phi of the wave.

    The optimizer is closed-form: e^{i theta} aligned with <u, phi>_{H^s}.
    """
    ip = _hs_inner(v, phi, cfg)
    nu2 = abs(_hs_inner(v, v, cfg))
    np2 = abs(_hs_inner(phi, phi, cfg))
    val = nu2 + np2 - 2.0 * abs(ip)
    return math.sqrt(max(val, 0.0))


def init_state(cfg: SimConfig, phi=None) -> np.ndarray:
    """Spectrum of the wave (spectrum phi, by default the exact discrete
    wave) plus the configured perturbation, scaled to eps times the wave's
    H^s norm."""
    if phi is None:
        phi = _wave_spectrum(cfg)
    v = phi.astype(complex)
    if cfg.eps > 0:
        if cfg.shape == "greens-bump":
            bump = _greens_spectrum(cfg, 2.0 * cfg.params.omega)
        else:
            rng = np.random.default_rng(cfg.seed)
            raw = rng.standard_normal(cfg.modes) + 1j * rng.standard_normal(cfg.modes)
            bump = np.fft.fft(raw) * np.exp(-cfg.grid.symbol(1.0))
        v = v + bump * (cfg.eps * _hs_norm(phi, cfg) / _hs_norm(bump, cfg))
    return v


def step(v: np.ndarray, cfg: SimConfig) -> np.ndarray:
    """The spectrum one Strang step (half phase, rank-one kick, half phase)
    after v, as P^2 v + q (e^{i theta} - 1) P (-1)^k; v is left unchanged."""
    q = complex(np.dot(cfg.kick_row, v)) / cfg.modes
    # both substeps are isometries (max|u| <= sqrt(mass/h) for all time);
    # only an overflowing kick phase |u_j0|^{2 sigma} can spoil the field
    theta = (_inf_on_overflow(pow, abs(q), 2.0 * cfg.params.sigma)
             * cfg.dt / cfg.h)
    if not math.isfinite(theta):
        raise BlowUp("non-finite kick phase |u(0)|^(2 sigma) dt/h")
    v = cfg.phase * v
    v += (q * (cmath.exp(1j * theta) - 1.0)) * cfg.kick_row
    return v


# samples in each least-squares window of the growth-rate fit
GROWTH_FIT_WINDOW = 8


def _fit_growth_rate(times, dists, floor, cap):
    """Exponential growth rate of the distance over its linear-growth window.

    The early samples sit on the splitting-error noise floor and the late
    ones saturate nonlinearly, both biasing a single global fit low; instead
    the rate is the steepest least-squares slope of log(distance) over a
    sliding window restricted to floor < distance < cap.
    """
    idx = np.nonzero((dists > floor) & (dists < cap))[0]
    if idx.size < GROWTH_FIT_WINDOW:
        return None
    best = None
    for i in range(idx.size - GROWTH_FIT_WINDOW + 1):
        sel = idx[i:i + GROWTH_FIT_WINDOW]
        t, d = times[sel], np.log(dists[sel])
        A = np.vstack([t, np.ones_like(t)]).T
        slope, _ = np.linalg.lstsq(A, d, rcond=None)[0]
        if best is None or slope > best:
            best = float(slope)
    return best


def run_experiment(cfg: SimConfig) -> TimeSeries:
    phi = _wave_spectrum(cfg)  # once per run
    v = init_state(cfg, phi=phi)
    n_steps = cfg.n_steps
    rows = []  # t, mass, energy, centre modulus, modulated distance
    blow_up = None

    def sample(t, v):
        rows.append((t, discrete_mass(v, cfg), discrete_energy(v, cfg),
                     abs(centre_value(v, cfg)), modulated_distance(v, phi, cfg)))

    t = 0.0
    sample(t, v)
    try:
        for k in range(1, n_steps + 1):
            v = step(v, cfg)
            t += cfg.dt
            if k % cfg.sample_every == 0 or k == n_steps:
                sample(t, v)
    except BlowUp:  # in the step that would have ended at t + dt
        blow_up = t + cfg.dt
        rows.append((blow_up, math.nan, math.nan, math.inf, math.inf))

    times, mass, energy, cmod, mdist = np.array(rows).T
    m0, e0, d0 = mass[0], energy[0], mdist[0]
    if math.isfinite(e0):
        energy_drift = np.abs(energy - e0) / max(abs(e0), 1e-300)
    else:
        # the potential |q|^{2 sigma + 2} already overflows at t = 0
        energy_drift = np.full_like(energy, math.nan)
    rate = None
    if blow_up is None and d0 > 0:
        rate = _fit_growth_rate(times, mdist, floor=10.0 * d0,
                                cap=0.05 * _hs_norm(phi, cfg))
    return TimeSeries(times=times, mass_drift=np.abs(mass - m0) / m0,
                      energy_drift=energy_drift,
                      center_modulus=cmod, mod_distance=mdist,
                      growth_rate=rate, blow_up_time=blow_up)
