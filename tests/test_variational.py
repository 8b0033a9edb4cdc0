import concurrent.futures

import numpy as np
import pytest

from cnls import numerics, variational
from cnls.moments import FourierGrid, PhysParams
from cnls.numerics import DomainError
from cnls.variational import (MAX_DEFAULT_MODES, MollifierSpec,
                              convergence_study, default_solve_grid,
                              mollifier_value, petviashvili_solve)
from cnls.waves import sobolev_constant
from test_numerics import _FakePool

CLASSICAL = PhysParams(n=1, s=1.0, omega=1.0, sigma=1.0)


def _solve(scale):
    spec = MollifierSpec(scale=scale)
    return petviashvili_solve(CLASSICAL, spec,
                              default_solve_grid(CLASSICAL, spec))


class TestMollifier:
    def test_unit_integral(self):
        # Z = int_{-1}^{1} exp(-1/(1-x^2)) dx to 30 digits (mpmath)
        z = 0.443993816168079437823048921171
        assert abs(variational._bump_norm() - z) < 2e-16 * z
        for scale in (1.0, 4.0, 16.0):
            spec = MollifierSpec(scale=scale)
            x = np.linspace(-1.5 / scale, 1.5 / scale, 20001)
            v = mollifier_value(x, spec)
            assert np.trapezoid(v, x) == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_bad_scale(self, scale):
        with pytest.raises(DomainError, match="finite"):
            MollifierSpec(scale=scale)

    def test_support(self):
        spec = MollifierSpec(scale=8.0)
        assert mollifier_value(np.array([0.2]), spec)[0] == 0.0
        assert mollifier_value(np.array([0.0]), spec)[0] > 0.0


class TestPetviashvili:
    def test_converges_with_small_residual(self):
        res = _solve(8.0)
        assert res.residual < 1e-9
        assert res.iterations < 200
        assert res.stabilizer < 1e-9
        assert np.all(res.profile >= -1e-12)

    def test_m_n_above_sharp_constant(self):
        c2 = sobolev_constant(CLASSICAL)
        for scale in (4.0, 16.0):
            res = _solve(scale)
            assert res.m_N >= c2 - 1e-8

    def test_gap_monotone(self):
        rows = convergence_study(CLASSICAL, (4, 8, 16, 32))
        gaps = [r["gap"] for r in rows]
        assert all(a > b > 0 for a, b in zip(gaps, gaps[1:]))

    def test_study_checks_every_grid_before_solving(self, monkeypatch):
        def no_solve(*args):
            raise AssertionError("solved before every grid was checked")
        monkeypatch.setattr(variational, "petviashvili_solve", no_solve)
        with pytest.raises(DomainError, match="ceiling"):
            convergence_study(CLASSICAL, (4, 1e9))

    def test_study_jobs_keep_rows(self, monkeypatch):
        # two workers on two CPUs, mapped in this process by the stand-in
        monkeypatch.setattr(numerics.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            _FakePool)
        _FakePool.made.clear()
        serial = convergence_study(CLASSICAL, (4, 8))
        assert convergence_study(CLASSICAL, (4, 8), jobs=2) == serial
        assert _FakePool.made == [2]

    def test_default_grid_mode_ceiling(self):
        # the default grid keeps 16 points per mollifier width on [-40, 40]
        fine = default_solve_grid(CLASSICAL, MollifierSpec(scale=3000.0))
        assert fine.modes == MAX_DEFAULT_MODES
        with pytest.raises(DomainError, match="ceiling"):
            default_solve_grid(CLASSICAL, MollifierSpec(scale=4000.0))

    def test_grid_too_coarse(self):
        with pytest.raises(DomainError, match="does not resolve mollifier"):
            petviashvili_solve(CLASSICAL, MollifierSpec(scale=64.0),
                               grid=FourierGrid(half_length=40.0, modes=128))

    def test_constraint_normalized(self):
        res = _solve(8.0)
        x = res.grid_x
        h = x[1] - x[0]
        v = mollifier_value(x, MollifierSpec(scale=8.0))
        constraint = float(np.sum(v * np.abs(res.profile) ** 4)) * h
        assert constraint == pytest.approx(1.0, rel=1e-10)
