"""The benchmark's workloads: the `cnls` commands each one runs, the inputs
it draws from its seed, and the checks of every output against
`references`.

A workload builds its inputs once per run (`prepare`), then gives the
argument lists of one round of commands (`commands`) and checks the files
one round wrote (`check`).  Every check returns a list of problems; an empty
list means the output is correct.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

import references as ref

# ---------------------------------------------------------------------------
# output checks (pure functions of parsed output and reference values)
# ---------------------------------------------------------------------------

LAMBDA_RTOL = 1e-8       # unstable eigenvalue vs the root of elementary D
Q_RTOL = 1e-12           # VK quantity vs reference moments, relative to M_3
PROFILE_TOL = 1e-7       # phi(r) vs reference, as a share of phi(0)
CENTRE_TOL = 1e-12       # phi(0) vs M_1^{-1/(2 sigma)}, relative
MASS_DRIFT_TOL = 1e-10
STEPPER_RTOL = 1e-9      # centre modulus vs the reference stepper, relative
STABLE_GROWTH_CAP = 5.0  # stable run: max modulated distance / initial
GROWTH_RTOL = 0.15       # fitted growth rate vs the root of elementary D

VERIFY_CHECKS = ("moment-oracle", "sobolev-constant", "pohozaev",
                 "vk-fractions", "stability-boundary", "bound-state-oracle",
                 "linearized-eigenvalue", "variational-convergence",
                 "dynamics-conservation")


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_map(rows: list[dict], n: int, omega: float, s_grid, sigma_grid,
              lambdas: dict) -> list[str]:
    """One stability-map output against sigma*, reference Q and elementary D.

    `lambdas` maps (s, sigma) to the reference eigenvalue (None if stable).
    """
    want_cells = [(float(s), float(sg)) for s in s_grid for sg in sigma_grid]
    got_cells = [(float(r["s"]), float(r["sigma"])) for r in rows]
    if got_cells != want_cells:
        return [f"n={n}: cells {got_cells} differ from the requested grid"]
    problems = []
    for r, (s, sg) in zip(rows, want_cells):
        cell = f"n={n} s={s:.6g} sigma={sg:.6g}"
        want = "unstable" if sg > ref.sigma_star(n, s) else "stable"
        if r["classification"] != want:
            problems.append(f"{cell}: classified {r['classification']}, "
                            f"sigma* says {want}")
        q, q_ref = float(r["Q"]), ref.vk_quantity(n, s, omega, sg)
        if (q < 0) != (q_ref < 0) or abs(q - q_ref) > Q_RTOL * ref.moment(3.0, n, s, omega):
            problems.append(f"{cell}: Q={q!r}, reference {q_ref!r}")
        lam_ref = lambdas[(s, sg)]
        if (want == "unstable") != (lam_ref is not None):
            problems.append(f"{cell}: elementary D root {lam_ref} disagrees "
                            f"with sigma*")
        text = r["unstable_lambda"]
        if lam_ref is None:
            if text:
                problems.append(f"{cell}: lambda {text} on a stable cell")
        elif not text:
            problems.append(f"{cell}: no lambda, reference {lam_ref!r}")
        elif abs(float(text) - lam_ref) > LAMBDA_RTOL * lam_ref:
            problems.append(f"{cell}: lambda {text}, reference {lam_ref!r}")
    return problems


def check_profile(rows: list[dict], radii, phi_ref, phi0_ref: float) -> list[str]:
    """One profile output against phi(0) = M_1^{-1/(2 sigma)} and phi_ref(r)."""
    r = np.array([float(x["r"]) for x in rows])
    phi = np.array([float(x["phi"]) for x in rows])
    if r.shape != np.shape(radii) or np.any(r != radii):
        return ["radii differ from the requested grid"]
    problems = []
    if abs(phi[0] - phi0_ref) > CENTRE_TOL * phi0_ref:
        problems.append(f"phi(0)={phi[0]!r}, M_1^(-1/(2 sigma))={phi0_ref!r}")
    err = np.abs(phi - phi_ref)
    worst = int(np.argmax(err))
    if err[worst] > PROFILE_TOL * phi0_ref:
        problems.append(f"phi({r[worst]:.6g}) off the reference by "
                        f"{err[worst] / phi0_ref:.2e} of phi(0)")
    return problems


def check_series(rows: list[dict], manifest: dict, want_samples: int,
                 centre_ref, growth_ref: float | None) -> list[str]:
    """One simulate output: sample count, mass drift, centre modulus vs the
    reference stepper over a prefix, and orbital stability or growth rate.

    `growth_ref` is the expected growth rate, or None for a stable run.
    """
    summary = manifest["summary"]
    if "blow_up_time" in summary:
        return [f"blow-up at t={summary['blow_up_time']}"]
    if len(rows) != want_samples:
        return [f"{len(rows)} samples, expected {want_samples}"]
    problems = []
    drift = max(float(x["mass_drift"]) for x in rows)
    if not drift <= MASS_DRIFT_TOL:
        problems.append(f"mass drift {drift:.3e} > {MASS_DRIFT_TOL:g}")
    centre = np.array([float(x["center_modulus"]) for x in rows[:len(centre_ref)]])
    dev = float(np.max(np.abs(centre - centre_ref)) / centre_ref[0])
    if not dev <= STEPPER_RTOL:
        problems.append(f"centre modulus off the reference stepper by {dev:.2e}")
    dist = np.array([float(x["mod_distance"]) for x in rows])
    if growth_ref is None:
        if not dist.max() < STABLE_GROWTH_CAP * dist[0]:
            problems.append(f"modulated distance grew {dist.max() / dist[0]:.2f}x")
    else:
        rate = summary.get("growth_rate")
        if rate is None or not abs(rate - growth_ref) <= GROWTH_RTOL * growth_ref:
            problems.append(f"growth rate {rate}, elementary D root {growth_ref!r}")
    return problems


def check_verify(text: str, semi_ref: float, c2_ref: float) -> list[str]:
    """`cnls verify` output: each of the nine named checks reports PASS.

    Two printed values are compared with references as well: the
    semi-analytic lowest L+ eigenvalue (4 decimals) and c^2 (6 digits).
    """
    problems = []
    lines = [line for line in text.splitlines() if line.strip()]
    status = {}
    for line in lines:
        word, _, rest = line.partition(" ")
        status[rest.partition(":")[0]] = word
    for name in VERIFY_CHECKS:
        if status.get(name) != "PASS":
            problems.append(f"{name}: {status.get(name, 'missing')}")
    extra = sorted(set(status) - set(VERIFY_CHECKS))
    if extra:
        problems.append(f"unexpected checks {extra}")
    for line in lines:
        if "semi-analytic" in line:
            semi = float(line.split("semi-analytic")[1].split(",")[0])
            if abs(semi - semi_ref) > 5e-5 * max(1.0, abs(semi_ref)):
                problems.append(f"semi-analytic L+ eigenvalue {semi}, "
                                f"reference {semi_ref!r}")
        if "toward c^2=" in line:
            c2 = float(line.split("toward c^2=")[1].split()[0])
            if abs(c2 - c2_ref) > 1e-5 * c2_ref:
                problems.append(f"c^2={c2}, reference {c2_ref!r}")
    return problems


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _range(lo: float, hi: float, count: int) -> str:
    return f"{lo!r}:{hi!r}:{count}"


class Workload:
    """Defaults shared by the workloads; each adds `prepare`, `commands`
    and `check`."""

    name: str

    def __init__(self, seed: int):
        pass

    def totals(self) -> dict:
        """Span counts a traced round must reproduce exactly."""
        return {}

    def samples(self) -> int:
        """Time-series rows one round writes."""
        return 0


class SpectralMap(Workload):
    """`stability-map --with-lambda` for n = 1, 2, 3.

    Per dimension, s = n (0.65 .. 1.5) puts sigma* at 0.3, 1.15 and 2.0;
    the six sigma values 0.4 .. 2.9 give 12 unstable and 6 stable cells,
    each at least 0.06 from sigma* under the seeded shifts.  The shifts of s
    stay small because the cost of a cell grows fast as s/n falls.
    """

    name = "spectral-map"
    omega = 1.0

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.grids = []
        for n in (1, 2, 3):
            ds, dsig = rng.uniform(-0.005, 0.005), rng.uniform(-0.03, 0.03)
            s_rng = (n * (0.65 + ds), n * (1.5 + ds), 3)
            sig_rng = (0.4 + dsig, 2.9 + dsig, 6)
            self.grids.append((n, s_rng, sig_rng))

    def prepare(self, run_dir: Path) -> None:
        self.cells = {}
        for n, s_rng, sig_rng in self.grids:
            s_grid, sig_grid = np.linspace(*s_rng), np.linspace(*sig_rng)
            lams = {(float(s), float(sg)): ref.unstable_root(n, s, self.omega, sg)
                    for s in s_grid for sg in sig_grid}
            self.cells[n] = (s_grid, sig_grid, lams)

    def commands(self, out: Path) -> list[list[str]]:
        return [["stability-map", "--n", str(n), "--omega", repr(self.omega),
                 "--s-range", _range(*s_rng), "--sigma-range", _range(*sig_rng),
                 "--with-lambda", "--out", str(out / f"n{n}")]
                for n, s_rng, sig_rng in self.grids]

    def check(self, out: Path) -> list[str]:
        problems = []
        for n, _, _ in self.grids:
            s_grid, sig_grid, lams = self.cells[n]
            rows = read_csv(out / f"n{n}" / "stability_map.csv")
            problems += check_map(rows, n, self.omega, s_grid, sig_grid, lams)
        return problems

    def totals(self) -> dict:
        return {"spectrum.classify.calls":
                sum(g[1][2] * g[2][2] for g in self.grids)}


class Profiles(Workload):
    """`profile` for n = 1 and n = 3 at two orders s each, and n = 2 at
    s = 2 (the order with a Kelvin-function closed form), on 161 radii."""

    name = "profiles"
    count = 161

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.cases = []
        for n, s in ((1, 0.75), (1, 1.5), (2, 2.0), (3, 2.0), (3, 3.0)):
            if n != 2:
                s += rng.uniform(-0.05, 0.05)
            self.cases.append((n, s, rng.uniform(0.8, 1.25), rng.uniform(0.5, 2.0)))
        self.r_max = rng.uniform(7.5, 8.5)

    def prepare(self, run_dir: Path) -> None:
        self.radii = np.linspace(0.0, self.r_max, self.count)
        self.refs = [ref.profile(self.radii, n, s, om, sig)
                     for n, s, om, sig in self.cases]

    def commands(self, out: Path) -> list[list[str]]:
        return [["profile", "--n", str(n), "--s", repr(s), "--omega", repr(om),
                 "--sigma", repr(sig),
                 "--r-range", _range(0.0, self.r_max, self.count),
                 "--out", str(out / f"p{i}")]
                for i, (n, s, om, sig) in enumerate(self.cases)]

    def check(self, out: Path) -> list[str]:
        problems = []
        for i, (n, s, om, sig) in enumerate(self.cases):
            rows = read_csv(out / f"p{i}" / "profile.csv")
            phi0 = ref.moment(1.0, n, s, om) ** (-1.0 / (2.0 * sig))
            problems += [f"n={n} s={s:.6g}: {p}" for p in
                         check_profile(rows, self.radii, self.refs[i], phi0)]
        return problems

    def totals(self) -> dict:
        return {"waves.greens_value.calls": self.count * len(self.cases)}


class Dynamics(Workload):
    """Two `simulate` runs: a subcritical orbit (sigma = 1/2, 1024 modes,
    sampled every 500 steps) and a supercritical growth run (sigma = 2, 2048
    modes, sampled every 10 steps)."""

    name = "dynamics"
    prefix_steps = 2000  # steps compared with the reference stepper

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        common = {"n": 1, "s": 1.0, "omega": 1.0, "half_length": 40.0}
        self.configs = {
            "stable": {**common, "sigma": 0.5, "modes": 1024, "dt": 5e-4,
                       "t_final": 5.0, "eps": rng.uniform(1e-3, 2e-3),
                       "shape": "greens-bump", "seed": 0, "sample_every": 500},
            "growth": {**common, "sigma": 2.0, "modes": 2048, "dt": 2e-4,
                       "t_final": 1.6, "eps": 1e-4, "shape": "noise",
                       "seed": int(rng.integers(0, 2 ** 31)),
                       "sample_every": 10},
        }

    @staticmethod
    def steps(cfg: dict) -> int:
        return int(round(cfg["t_final"] / cfg["dt"]))

    def prepare(self, run_dir: Path) -> None:
        self.expect = {}
        for label, cfg in self.configs.items():
            (run_dir / f"{label}.cfg").write_text(
                "".join(f"{k} = {v}\n" for k, v in cfg.items()))
            stepper = ref.SplitStep(cfg["s"], cfg["omega"], cfg["sigma"],
                                    cfg["half_length"], cfg["modes"], cfg["dt"])
            u0 = stepper.initial(cfg["eps"], cfg["shape"], cfg["seed"])
            centre = stepper.centre_moduli(u0, self.prefix_steps, cfg["sample_every"])
            n_steps, every = self.steps(cfg), cfg["sample_every"]
            samples = 1 + n_steps // every + (n_steps % every != 0)
            growth = (ref.unstable_root(cfg["n"], cfg["s"], cfg["omega"], cfg["sigma"])
                      if label == "growth" else None)
            self.expect[label] = (samples, centre, growth)
        self.run_dir = run_dir

    def commands(self, out: Path) -> list[list[str]]:
        return [["simulate", "--config", str(self.run_dir / f"{label}.cfg"),
                 "--out", str(out / label)] for label in self.configs]

    def check(self, out: Path) -> list[str]:
        problems = []
        for label, (samples, centre, growth) in self.expect.items():
            rows = read_csv(out / label / "series.csv")
            manifest = json.loads((out / label / "manifest.json").read_text())
            problems += [f"{label}: {p}" for p in
                         check_series(rows, manifest, samples, centre, growth)]
        return problems

    def totals(self) -> dict:
        return {"dynamics.step.calls": sum(map(self.steps, self.configs.values()))}

    def samples(self) -> int:
        # the checks confirm each run writes this many rows
        return sum(samples for samples, _, _ in self.expect.values())


class Verify(Workload):
    """`verify --jobs 1`: the oracle routes of every layer.  It takes no
    inputs, so the seed changes nothing."""

    name = "verify"

    def prepare(self, run_dir: Path) -> None:
        # the L+ check of `verify` runs at n = s = omega = sigma = 1
        c2 = 1.0 / ref.moment(1.0, 1, 1.0, 1.0)
        self.semi_ref = ref.bound_state(3.0 * c2, 1, 1.0, 1.0)
        self.c2_ref = c2

    def commands(self, out: Path) -> list[list[str]]:
        return [["verify", "--jobs", "1", "--out", str(out / "verify")]]

    def check(self, out: Path) -> list[str]:
        text = (out / "verify" / "verify.txt").read_text()
        return check_verify(text, self.semi_ref, self.c2_ref)


WORKLOADS = {w.name: w for w in (SpectralMap, Profiles, Dynamics, Verify)}
