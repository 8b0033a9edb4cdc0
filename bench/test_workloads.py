"""The output checks accept a correct output and reject a slightly perturbed
one; the seeded inputs and the span bookkeeping behave as the README says.

    python -m pytest bench
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import references as ref
import run
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent


def fmt(x) -> str:
    return "" if x is None else f"{float(x):.17g}"


# ---------------------------------------------------------------------------
# stability map
# ---------------------------------------------------------------------------

N, OMEGA = 2, 1.0
S_GRID = np.linspace(1.3, 3.0, 3)
SIG_GRID = np.linspace(0.4, 2.9, 6)


@pytest.fixture(scope="module")
def map_case():
    lams = {(float(s), float(sg)): ref.unstable_root(N, s, OMEGA, sg)
            for s in S_GRID for sg in SIG_GRID}
    rows = []
    for s in S_GRID:
        for sg in SIG_GRID:
            lam = lams[(float(s), float(sg))]
            rows.append({"s": fmt(s), "sigma": fmt(sg),
                         "Q": fmt(ref.vk_quantity(N, s, OMEGA, sg)),
                         "classification": "stable" if lam is None else "unstable",
                         "k_r": "0" if lam is None else "1",
                         "unstable_lambda": fmt(lam)})
    return rows, lams


def test_map_check_accepts_reference_rows(map_case):
    rows, lams = map_case
    assert wl.check_map(rows, N, OMEGA, S_GRID, SIG_GRID, lams) == []
    assert sum(lam is not None for lam in lams.values()) == 12


def _first(rows, classification):
    return next(i for i, r in enumerate(rows) if r["classification"] == classification)


@pytest.mark.parametrize("perturb", [
    lambda r: r.update(unstable_lambda=fmt(float(r["unstable_lambda"]) * (1 + 1e-7))),
    lambda r: r.update(unstable_lambda=""),
    lambda r: r.update(classification="stable"),
    lambda r: r.update(Q=fmt(float(r["Q"]) * (1 + 1e-9))),
    lambda r: r.update(Q=fmt(-float(r["Q"]))),
])
def test_map_check_rejects_perturbed_unstable_cell(map_case, perturb):
    rows, lams = map_case
    rows = [dict(r) for r in rows]
    perturb(rows[_first(rows, "unstable")])
    assert wl.check_map(rows, N, OMEGA, S_GRID, SIG_GRID, lams)


@pytest.mark.parametrize("perturb", [
    lambda r: r.update(unstable_lambda="1.5"),
    lambda r: r.update(classification="unstable"),
    lambda r: r.update(sigma=fmt(float(r["sigma"]) + 1e-9)),
])
def test_map_check_rejects_perturbed_stable_cell(map_case, perturb):
    rows, lams = map_case
    rows = [dict(r) for r in rows]
    perturb(rows[_first(rows, "stable")])
    assert wl.check_map(rows, N, OMEGA, S_GRID, SIG_GRID, lams)


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def profile_case():
    n, s, omega, sigma = 3, 2.0, 1.1, 0.7
    radii = np.linspace(0.0, 8.0, 41)
    phi = ref.profile(radii, n, s, omega, sigma)
    phi0 = ref.moment(1.0, n, s, omega) ** (-1 / (2 * sigma))
    rows = [{"r": fmt(r), "phi": fmt(v)} for r, v in zip(radii, phi)]
    return rows, radii, phi, phi0


def test_profile_check_accepts_reference(profile_case):
    rows, radii, phi, phi0 = profile_case
    assert phi[0] == pytest.approx(phi0, rel=1e-14)
    assert wl.check_profile(rows, radii, phi, phi0) == []


@pytest.mark.parametrize("index,delta", [(0, 2e-12), (7, 2e-7), (40, -2e-7)])
def test_profile_check_rejects_perturbed_value(profile_case, index, delta):
    rows, radii, phi, phi0 = profile_case
    rows = [dict(r) for r in rows]
    rows[index]["phi"] = fmt(float(rows[index]["phi"]) + delta * phi0)
    assert wl.check_profile(rows, radii, phi, phi0)


def test_profile_check_rejects_other_radii(profile_case):
    rows, radii, phi, phi0 = profile_case
    assert wl.check_profile(rows[:-1], radii, phi, phi0)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def series_case(growth):
    centre = np.array([2.0, 2.0 + 1e-6, 2.0 - 1e-6])
    rows = [{"t": fmt(i), "mass_drift": fmt(1e-13 * i), "energy_drift": "0",
             "center_modulus": fmt(c), "mod_distance": fmt(1e-3 * (1 + i / 4))}
            for i, c in enumerate(np.concatenate([centre, [1.9, 1.8]]))]
    summary = {"max_mass_drift": 4e-13}
    if growth is not None:
        summary["growth_rate"] = growth * 1.03
    return rows, {"summary": summary}, centre


@pytest.mark.parametrize("growth", [None, 4 * np.sqrt(3)])
def test_series_check_accepts(growth):
    rows, manifest, centre = series_case(growth)
    assert wl.check_series(rows, manifest, 5, centre, growth) == []


@pytest.mark.parametrize("growth", [None, 4 * np.sqrt(3)])
@pytest.mark.parametrize("perturb", [
    lambda rows, m: rows[3].update(mass_drift="2e-10"),
    lambda rows, m: rows[1].update(center_modulus=fmt(float(rows[1]["center_modulus"]) * (1 + 1e-8))),
    lambda rows, m: rows.pop(),
    lambda rows, m: m["summary"].update(blow_up_time=1.2),
])
def test_series_check_rejects(growth, perturb):
    rows, manifest, centre = series_case(growth)
    perturb(rows, manifest)
    assert wl.check_series(rows, manifest, 5, centre, growth)


def test_series_check_rejects_orbit_drift_and_wrong_rate():
    rows, manifest, centre = series_case(None)
    rows[4]["mod_distance"] = fmt(5.01e-3)
    assert wl.check_series(rows, manifest, 5, centre, None)
    lam = 4 * np.sqrt(3)
    rows, manifest, centre = series_case(lam)
    manifest["summary"]["growth_rate"] = lam * 0.84
    assert wl.check_series(rows, manifest, 5, centre, lam)
    del manifest["summary"]["growth_rate"]
    assert wl.check_series(rows, manifest, 5, centre, lam)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

VERIFY_TEXT = "\n".join(
    f"PASS {name}: detail" for name in wl.VERIFY_CHECKS
).replace("PASS bound-state-oracle: detail",
          "PASS bound-state-oracle: delta-well err 0 (tol 1e-10); L+ lowest "
          "-7.9990 vs semi-analytic -8.0000, rel 1e-4 (tol 1e-2)"
).replace("PASS variational-convergence: detail",
          "PASS variational-convergence: gaps 0.1 toward c^2=2 (monotone=True)")


def test_verify_check_accepts():
    assert wl.check_verify(VERIFY_TEXT, -8.0, 2.0) == []


@pytest.mark.parametrize("text", [
    VERIFY_TEXT.replace("PASS pohozaev", "FAIL pohozaev"),
    VERIFY_TEXT.replace("PASS vk-fractions: detail\n", ""),
    VERIFY_TEXT + "\nPASS new-check: detail",
    VERIFY_TEXT.replace("semi-analytic -8.0000", "semi-analytic -8.0010"),
    VERIFY_TEXT.replace("c^2=2 ", "c^2=2.001 "),
])
def test_verify_check_rejects(text):
    assert wl.check_verify(text, -8.0, 2.0)


def test_verify_references():
    w = wl.Verify(0)
    w.prepare(Path("."))
    assert w.semi_ref == pytest.approx(-8.0, rel=1e-14)
    assert w.c2_ref == pytest.approx(2.0, rel=1e-14)


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_inputs_follow_the_seed(name, tmp_path):
    a, b, c = (wl.WORKLOADS[name](seed) for seed in (7, 7, 8))
    for w in (a, b, c):
        w.prepare(tmp_path)
    # simulate commands name config files; their contents follow the seed
    inputs = lambda w: (w.commands(tmp_path), getattr(w, "configs", None))
    assert inputs(a) == inputs(b)
    assert (inputs(a) == inputs(c)) == (name == "verify")


@pytest.mark.parametrize("seed", range(20))
def test_map_cells_keep_clear_of_sigma_star(seed):
    w = wl.SpectralMap(seed)
    unstable = 0
    for n, s_rng, sig_rng in w.grids:
        for s in np.linspace(*s_rng):
            star = ref.sigma_star(n, s)
            gaps = np.linspace(*sig_rng) - star
            assert np.min(np.abs(gaps)) > 0.05
            unstable += int(np.sum(gaps > 0))
    assert unstable == 36
    assert w.totals() == {"spectrum.classify.calls": 54}


def test_dynamics_totals_and_samples(tmp_path):
    w = wl.Dynamics(3)
    w.prepare(tmp_path)
    assert w.totals() == {"dynamics.step.calls": 10000 + 8000}
    assert w.samples() == (1 + 20) + (1 + 800)
    assert (tmp_path / "growth.cfg").read_text().count("\n") == 12


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def _trace(tmp_path, *args):
    spans = tmp_path / "spans.npz"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "tracer.py"),
                           str(spans), "--", *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return run.span_totals([spans], [10.0])


def test_trace_counts_profile_radii(tmp_path):
    totals = _trace(tmp_path, "profile", "--n", "3", "--s", "2",
                    "--r-range", "0:2:7", "--out", str(tmp_path / "o"))
    assert totals["waves.greens_value"][0] == 7
    assert totals["waves.soliton_profile"][0] == 1
    calls, own, incl = totals["waves.greens_value"]
    assert 0 < own <= incl
    # the root span is soliton_profile: the rest of the 10 s is the process
    assert totals["process_s"] == pytest.approx(10.0 - totals["waves.soliton_profile"][2])


def test_trace_reaches_names_imported_by_verify(tmp_path):
    script = (
        "import importlib, tracer\n"
        "t = tracer.Tracer()\n"
        "t.install({l: importlib.import_module('cnls.' + l) for l in tracer.LAYERS})\n"
        "import cnls.dynamics as d, cnls.verify as v, cnls.cli as c\n"
        "assert v.step is d.step and d.step.__wrapped__\n"
        "assert all(hasattr(f, '__wrapped__') for f in v.ALL_CHECKS)\n"
        "assert c.classify is importlib.import_module('cnls.spectrum').classify\n"
        "assert c.classify.__wrapped__\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_trace_counts_simulate_steps(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("modes = 256\ndt = 1e-3\nt_final = 0.05\nsample_every = 10\n")
    totals = _trace(tmp_path, "simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert totals["dynamics.step"][0] == 50
    assert totals["dynamics.run_experiment"][0] == 1
