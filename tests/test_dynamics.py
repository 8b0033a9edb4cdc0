import math
import warnings

import numpy as np
import pytest

import cnls.dynamics
from cnls.dynamics import (SimConfig, _hs_norm, _wave_spectrum,
                           centre_value, discrete_energy, discrete_mass,
                           init_state, modulated_distance, run_experiment,
                           step)
from cnls.moments import PhysParams
from cnls.numerics import DomainError, NumericsError

STABLE = PhysParams(n=1, s=1.0, omega=1.0, sigma=0.5)
DEGEN = PhysParams(n=1, s=1.0, omega=1.0, sigma=1.0)


def _cfg(params, **kw):
    base = dict(half_length=40.0, modes=1024, dt=1e-3, t_final=1.0)
    base.update(kw)
    return SimConfig(**params._asdict(), **base)


class TestConfigValidation:
    def test_requires_1d(self):
        with pytest.raises(DomainError):
            _cfg(PhysParams(n=2, s=1.5, omega=1.0, sigma=1.0))

    def test_power_of_two_modes(self):
        with pytest.raises(DomainError):
            _cfg(STABLE, modes=1000)

    def test_splitting_stability_threshold(self):
        # dt * mu_max >= pi is rejected (resonant energy pumping)
        with pytest.raises(DomainError):
            _cfg(STABLE, modes=8192, dt=1e-3)

    @pytest.mark.parametrize("kw", [
        {"dt": float("nan")}, {"t_final": float("inf")},
        {"half_length": float("nan")}, {"sample_every": 0}, {"modes": 0},
        {"modes": 1}, {"t_final": 1e-4}, {"dt": 1e-320}])
    def test_rejects_non_finite_and_empty_settings(self, kw):
        with pytest.raises(DomainError):
            _cfg(STABLE, **kw)

    def test_perturbation_bounds(self):
        with pytest.raises(DomainError):
            _cfg(STABLE, eps=0.7)
        with pytest.raises(DomainError):
            _cfg(STABLE, eps=0.1, shape="square")


class TestDiscreteWave:
    def test_center_value_near_continuum(self):
        # phi(0) = M_1^{-1/(2 sigma)} = sqrt(2) at the degenerate point,
        # up to the O(1/xi_max) symbol-tail offset of the grid
        cfg = _cfg(DEGEN, modes=4096, dt=1e-4)
        v = init_state(cfg)
        u = np.fft.ifft(v)
        assert abs(u[cfg.modes // 2]) == pytest.approx(math.sqrt(2.0),
                                                       rel=5e-3)
        assert centre_value(v, cfg) == pytest.approx(u[cfg.modes // 2],
                                                     rel=1e-12)

    def test_mass_energy_near_continuum(self):
        # continuum values: M = 2 and E + (omega/2) M = 1 at sigma = 1;
        # grid offset shrinks ~ 1/xi_max under mode doubling
        offsets = []
        for modes, dt in ((1024, 1e-3), (2048, 2.5e-4), (4096, 1e-4)):
            cfg = _cfg(DEGEN, modes=modes, dt=dt)
            v = init_state(cfg)
            mass = discrete_mass(v, cfg)
            comb = discrete_energy(v, cfg) + 0.5 * DEGEN.omega * mass
            offsets.append(abs(mass - 2.0) + abs(comb - 1.0))
        assert offsets[0] > offsets[1] > offsets[2]
        assert offsets[2] < 0.05

    def test_amplitude_beyond_the_float_range(self):
        # S_1^{-(2 sigma + 1)/(2 sigma)} ~ 2^5001 at sigma = 1e-4
        cfg = _cfg(PhysParams(n=1, s=1.0, omega=1.0, sigma=1e-4))
        with pytest.raises(NumericsError, match="wave amplitude .* leaves "
                                                "the float range"):
            run_experiment(cfg)

    def test_perturbation_scales_distance(self):
        cfg = _cfg(STABLE, eps=0.01, shape="greens-bump")
        v = init_state(cfg)
        phi = _wave_spectrum(cfg)
        assert modulated_distance(v, phi, cfg) \
            <= 0.02 * _hs_norm(phi, cfg)


class TestModulatedDistance:
    def test_phase_modded_out(self):
        cfg = _cfg(STABLE)
        phi = _wave_spectrum(cfg)
        # exact zero up to sqrt-of-roundoff cancellation in the norm
        for alpha in (0.3, 1.5, -2.0):
            assert modulated_distance(np.exp(1j * alpha) * phi, phi, cfg) \
                < 1e-6

    def test_tangent_direction_second_order(self):
        cfg = _cfg(STABLE)
        phi = _wave_spectrum(cfg)
        nrm = _hs_norm(phi, cfg)
        delta = 1e-3
        d = modulated_distance(phi + delta * 1j * phi, phi, cfg)
        assert d < 2.0 * delta ** 2 * nrm  # O(delta^2), not O(delta)

    def test_radial_direction_first_order(self):
        cfg = _cfg(STABLE)
        phi = _wave_spectrum(cfg)
        delta = 1e-3
        d = modulated_distance((1 + delta) * phi, phi, cfg)
        assert d == pytest.approx(delta * _hs_norm(phi, cfg), rel=1e-6)


class TestStep:
    def test_mass_conserved_to_roundoff(self):
        cfg = _cfg(STABLE, dt=1e-3)
        v = init_state(cfg)
        m0 = discrete_mass(v, cfg)
        for _ in range(2000):
            v = step(v, cfg)
        assert abs(discrete_mass(v, cfg) - m0) / m0 < 1e-11
        # Parseval: the spectral mass is the grid mass h sum |u|^2
        assert discrete_mass(v, cfg) == pytest.approx(
            cfg.h * np.sum(np.abs(np.fft.ifft(v)) ** 2), rel=1e-13)

    def test_one_step_is_phase_rotation(self):
        # u(dt) ~ e^{+i omega dt} phi: fixes the sign convention
        cfg = _cfg(DEGEN, modes=512, dt=1e-4)
        phi = _wave_spectrum(cfg)
        u = np.fft.ifft(step(init_state(cfg, phi=phi), cfg))
        ref = np.exp(1j * DEGEN.omega * cfg.dt) * np.fft.ifft(phi)
        wrong = np.exp(-1j * DEGEN.omega * cfg.dt) * np.fft.ifft(phi)
        err_right = np.max(np.abs(u - ref))
        err_wrong = np.max(np.abs(u - wrong))
        assert err_right < 1e-7
        assert err_right < 1e-2 * err_wrong

    def test_phase_follows_each_config(self):
        # back-to-back configs with equal dt but different s: each step must
        # use the half-step phase of its own config, whatever ids are reused.
        # The reference is the Strang loop in grid space, with FFTs: half
        # phase, rotation of the centre node, half phase.  sigma = 2 is
        # unstable (rate ~ 6.8), so over 2000 steps (t = 2) round-off of
        # 1e-16 may grow by up to e^{13.6} ~ 1e6: that case is held to
        # 1e-10 max|u|, the 10-step cases to 1e-12 absolute
        for s, steps in ((1.0, 10), (0.75, 10), (1.0, 2000)):
            cfg = _cfg(PhysParams(n=1, s=s, omega=1.0, sigma=2.0), modes=256,
                       eps=0.1, shape="noise", seed=3)
            v = init_state(cfg)
            u = np.fft.ifft(v)
            half = np.exp(-1j * cfg.symbol * cfg.dt / 2.0)
            j0 = cfg.modes // 2
            for _ in range(steps):
                v = step(v, cfg)
                u = np.fft.ifft(half * np.fft.fft(u))
                u[j0] *= np.exp(1j * abs(u[j0]) ** 4 * cfg.dt / cfg.h)
                u = np.fft.ifft(half * np.fft.fft(u))
            bound = 1e-12 if steps == 10 else 1e-10 * np.max(np.abs(u))
            assert np.max(np.abs(np.fft.ifft(v) - u)) < bound
            del cfg, v

    @pytest.mark.parametrize("kw", [
        # the two configs of the benchmark's `simulate` runs
        dict(sigma=0.5, modes=1024, dt=5e-4, eps=1.5e-3, shape="greens-bump"),
        dict(sigma=2.0, modes=2048, dt=2e-4, eps=1e-4, shape="noise",
             seed=12345),
    ])
    def test_fused_step_is_the_three_stage_strang_step(self, kw):
        # oracle: half phase, rank-one kick at the centre node, half phase,
        # as three stages on the spectrum
        cfg = SimConfig(half_length=40.0, t_final=1.0, **kw)
        half = np.exp(-1j * cfg.symbol * cfg.dt / 2.0)
        sign = np.where(np.arange(cfg.modes) % 2 == 0, 1.0, -1.0)
        fused = init_state(cfg)
        v = fused.copy()
        for _ in range(2000):
            fused = step(fused, cfg)
            v = half * v
            q = np.dot(sign, v) / cfg.modes
            theta = abs(q) ** (2.0 * cfg.sigma) * cfg.dt / cfg.h
            v = half * (v + q * (np.exp(1j * theta) - 1.0) * sign)
        assert np.linalg.norm(fused - v) <= 1e-12 * np.linalg.norm(v)

    def test_step_returns_a_new_spectrum(self):
        # step is a function of its argument: v is left as it was
        cfg = _cfg(STABLE, eps=0.3, shape="noise", seed=7)
        v = init_state(cfg)
        before = v.copy()
        w = step(v, cfg)
        assert w is not v and not np.shares_memory(w, v)
        assert np.array_equal(v, before)
        assert not np.array_equal(w, v)

    def test_mass_and_energy_sums(self):
        # the dot-product sums against sum |v|^2 and sum symbol |v|^2
        cfg = _cfg(STABLE, eps=0.3, shape="noise", seed=7)
        v = init_state(cfg)
        scale = cfg.h / cfg.modes
        assert discrete_mass(v, cfg) == pytest.approx(
            scale * np.sum(np.abs(v) ** 2), rel=1e-14)
        pot = abs(centre_value(v, cfg)) ** 3 / 3.0
        assert discrete_energy(v, cfg) + pot == pytest.approx(
            0.5 * scale * np.sum(cfg.symbol * np.abs(v) ** 2), rel=1e-14)


class TestRunExperiment:
    def test_stable_run_stays_close(self):
        cfg = _cfg(STABLE, dt=2.5e-4, t_final=5.0, eps=1e-3,
                   shape="greens-bump", sample_every=400)
        ts = run_experiment(cfg)
        assert ts.mod_distance.max() < 5.0 * ts.mod_distance[0]
        assert ts.growth_rate is None
        assert ts.blow_up_time is None
        assert np.all(np.diff(ts.times) > 0)

    def test_noise_shape_reproducible(self):
        cfg = _cfg(STABLE, t_final=0.05, eps=0.05, shape="noise", seed=3)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert np.array_equal(a.mod_distance, b.mod_distance)

    def test_energy_computed_once_per_sample(self, monkeypatch):
        calls = []
        energy = cnls.dynamics.discrete_energy

        def counted(v, cfg):
            calls.append(1)
            return energy(v, cfg)

        monkeypatch.setattr(cnls.dynamics, "discrete_energy", counted)
        cfg = _cfg(STABLE, t_final=0.05, sample_every=10)
        ts = run_experiment(cfg)
        assert len(calls) == len(ts.times) == 6

    def test_tall_standing_wave_is_no_blow_up(self):
        # at sigma = 0.019 the exact discrete wave peaks at 1.27e8; the
        # splitting is an L2 isometry, so its size alone is not a blow-up
        cfg = _cfg(PhysParams(n=1, s=1.0, omega=1.0, sigma=0.019),
                   t_final=0.01, sample_every=1)
        ts = run_experiment(cfg)
        assert ts.center_modulus[0] > 1e8
        assert ts.blow_up_time is None
        assert ts.times.size == 11
        assert ts.mass_drift.max() < 1e-10

    def test_overflowing_kick_is_blow_up(self):
        # at sigma = 1000 the kicked centre value exceeds 1.43, so the kick
        # phase |u_j0|^{2 sigma} overflows in the first step
        cfg = _cfg(PhysParams(n=1, s=1.0, omega=1.0, sigma=1000.0),
                   t_final=0.01, eps=0.5, shape="greens-bump")
        # the initial potential |q|^{2 sigma + 2} overflows too, so there is
        # no finite energy to drift from, and no numpy warning either
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ts = run_experiment(cfg)
        assert ts.blow_up_time == 0.001
        assert ts.times.size == 2
        assert ts.center_modulus[-1] == math.inf
        assert ts.growth_rate is None
        assert np.isnan(ts.energy_drift).all()

    def test_later_blow_up_time_is_the_summed_steps(self):
        # 14 steps run, and the kick phase overflows in the 15th: the
        # blow-up time is the running sum of dt plus one more dt, like the
        # sample times, and not the product 15 * dt = 0.015
        cfg = SimConfig(sigma=1000.0, modes=256, half_length=20.0, dt=1e-3,
                        t_final=0.2, eps=0.1, shape="greens-bump",
                        sample_every=1)
        ts = run_experiment(cfg)
        assert ts.blow_up_time == 0.015000000000000006
        assert ts.times.size == 16
        assert ts.times[-1] == ts.blow_up_time
        assert ts.times[-2] + cfg.dt == ts.blow_up_time
        assert np.isfinite(ts.center_modulus[:-1]).all()
