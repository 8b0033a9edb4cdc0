import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import cnls
from cnls.cli import (_parse_range, _parse_sim_config, _sim_keys,
                      build_parser, main)
from cnls.dynamics import SimConfig
from cnls.numerics import DomainError


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParsing:
    def test_range(self):
        vals = _parse_range("0:1:5")
        assert np.allclose(vals, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_range_single(self):
        assert _parse_range("2:2:1") == [2.0]

    @given(lo=st.floats(allow_nan=False, allow_infinity=False),
           span=st.floats(0.0, allow_nan=False, allow_infinity=False),
           count=st.integers(1, 400))
    @example(lo=1.5, span=0.0, count=1)
    @example(lo=-0.0, span=0.0, count=1)
    @example(lo=3.0, span=0.0, count=7)                 # lo == hi
    @example(lo=-7.25, span=3.5, count=5)               # negative ends
    @example(lo=-1e308, span=1.7e308, count=9)          # huge span
    @example(lo=-1e308, span=2e308, count=3)            # hi - lo overflows
    @example(lo=0.0, span=5e-324, count=3)              # subnormal step: 0
    @example(lo=1e-310, span=3e-323, count=200)         # subnormal step: 0
    def test_range_is_linspace_bit_for_bit(self, lo, span, count):
        hi = lo + span
        if not math.isfinite(hi) or (count == 1 and hi != lo):
            return
        if not math.isfinite(hi - lo):
            with pytest.raises(DomainError, match="span"):
                _parse_range(f"{lo!r}:{hi!r}:{count}")
            return
        with np.errstate(all="ignore"):
            want = np.linspace(lo, hi, count)
        got = _parse_range(f"{lo!r}:{hi!r}:{count}")
        assert type(got) is list
        assert np.array(got).tobytes() == want.tobytes()

    def test_bad_ranges(self):
        for text in ("0:1", "a:1:5", "1:0:5", "0:1:0", "0:inf:3",
                     "nan:1:3"):
            with pytest.raises(DomainError):
                _parse_range(text)

    @pytest.mark.parametrize("argv", [
        ["profile", "--r-range=-1e308:1e308:3"],
        ["stability-map", "--s-range=-1e308:1e308:3",
         "--sigma-range", "0.5:1:2"],
    ])
    def test_overflowing_span_exits_2(self, argv, capsys):
        # hi - lo = 2e308 is not a float: no row may be printed, and the
        # message names the range rather than a NaN it would produce
        code, out, err = run(argv, capsys)
        assert code == 2
        assert out == ""
        assert "-1e308:1e308:3" in err and "span" in err

    def test_parser_builds(self):
        build_parser()


def _options(parser):
    return [opt for action in parser._actions
            if not isinstance(action, argparse._HelpAction)
            for opt in action.option_strings]


# the flags each command reads, and no other
OPTIONS = {
    "constants": "--format --out --n --s --omega",
    "profile": "--format --out --n --s --omega --sigma --r-range",
    "pohozaev": "--format --out --tol --n --s --omega --sigma --quadrature",
    "spectrum": "--format --out --n --s --omega --sigma --no-lambda",
    "stability-map": "--format --out --jobs --n --omega --s-range "
                     "--sigma-range --with-lambda",
    "variational": "--format --out --jobs --n --s --omega --sigma --scales",
    "simulate": "--out --config",
    "verify": "--out --jobs",
}

UNREAD = [
    ["constants", "--tol", "1e-3"],
    ["profile", "--jobs", "2"],
    ["spectrum", "--jobs", "2"],
    ["simulate", "--config", "CFG", "--out", "OUT", "--format", "csv"],
    ["simulate", "--config", "CFG", "--out", "OUT", "--format", "json"],
    ["verify", "--format", "csv"],
    ["verify", "--format", "json"],
    ["--format", "json", "constants"],
    ["--jobs", "2", "verify"],
    ["--out", "OUT", "constants"],
]


class TestFlags:
    def test_option_table(self):
        parser = build_parser()
        assert _options(parser) == []
        (sub,) = [a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
        table = {name: " ".join(_options(c)) for name, c in sub.choices.items()}
        assert table == OPTIONS
        assert sum(len(flags.split()) for flags in table.values()) == 47

    @pytest.mark.parametrize("argv", UNREAD, ids=[" ".join(a) for a in UNREAD])
    def test_unread_flag_exits_2(self, capsys, tmp_path, argv):
        # argparse rejects the flag before any work: no output directory
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma = 1\n")
        out_dir = tmp_path / "out"
        argv = [{"CFG": str(cfg), "OUT": str(out_dir)}.get(a, a) for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if argv[0].startswith("-"):
            assert f"{argv[0]} goes after the command name" in err
        assert not out_dir.exists()


class TestConstants:
    def test_classical_values(self, capsys):
        code, out, _ = run(["constants", "--n", "1", "--s", "1",
                            "--omega", "1"], capsys)
        assert code == 0
        rows = dict(line.split(",") for line in out.splitlines()[1:])
        assert float(rows["m1_closed"]) == pytest.approx(0.5, rel=1e-12)
        assert float(rows["c2"]) == pytest.approx(2.0, rel=1e-12)

    def test_embedding_violation_exits_2(self, capsys):
        code, _, err = run(["constants", "--n", "1", "--s", "0.4"], capsys)
        assert code == 2
        assert "s > n/2" in err

    @pytest.mark.parametrize("tol", ["0", "nan"])
    def test_tol_must_be_positive_and_finite(self, capsys, tol):
        with pytest.raises(SystemExit) as exc:
            main(["pohozaev", "--tol", tol])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err

    def test_json_format(self, capsys):
        code, out, _ = run(["constants", "--format", "json"], capsys)
        assert code == 0
        obj = json.loads(out)
        by_name = {r["quantity"]: r["value"] for r in obj["rows"]}
        assert by_name["m1_closed"] == pytest.approx(0.5)

    def test_global_flags_after_subcommand(self, capsys, tmp_path):
        # --format and --out, once global flags, together after the command
        code, out, _ = run(["constants", "--format", "json",
                            "--out", str(tmp_path)], capsys)
        assert code == 0 and out == ""
        obj = json.loads((tmp_path / "constants.json").read_text())
        by_name = {r["quantity"]: r["value"] for r in obj["rows"]}
        assert by_name["m1_closed"] == pytest.approx(0.5)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "constants"
        assert manifest["outputs"] == ["constants.json"]


class TestProfile:
    def test_csv_shape(self, capsys):
        code, out, _ = run(["profile", "--r-range", "0:2:5"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "r,phi"
        assert len(lines) == 6
        r0, phi0 = lines[1].split(",")
        assert float(phi0) == pytest.approx(2.0 ** 0.5, rel=1e-12)

    def test_seventeen_significant_digits(self, capsys):
        _, out, _ = run(["profile", "--r-range", "0:1:2"], capsys)
        phi0 = out.splitlines()[1].split(",")[1]
        assert len(phi0.replace(".", "").replace("-", "")) >= 16


class TestSpectrumCmd:
    def test_json_report(self, capsys):
        code, out, _ = run(["spectrum", "--sigma", "2", "--format", "json",
                            "--no-lambda"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["classification"] == "unstable"
        assert obj["k_r"] == 1
        assert obj["vk_quantity"] == pytest.approx(1.0 / 32.0, rel=1e-10)


    def test_eigenvalue_beyond_1e12_omega(self, capsys):
        code, out, _ = run(["spectrum", "--n", "3", "--s", "1.51",
                            "--sigma", "0.99", "--format", "json"], capsys)
        assert code == 0
        obj = json.loads(out)
        # 60-digit bisection on the same D gives 3.97669946927341e71
        assert obj["unstable_lambda"] == pytest.approx(3.97669946927341e71,
                                                       rel=1e-10)

    @pytest.mark.parametrize("flag", ["--omega", "--s"])
    def test_non_finite_parameter_exits_2(self, capsys, flag):
        code, _, err = run(["spectrum", flag, "inf"], capsys)
        assert code == 2
        assert "finite" in err


class TestStabilityMap:
    def test_boundary_matches_threshold(self, capsys):
        code, out, _ = run(["stability-map", "--n", "1",
                            "--s-range", "0.6:3:13",
                            "--sigma-range", "0.1:4:14"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "s,sigma,Q,classification,k_r,unstable_lambda"
        assert len(lines) == 13 * 14 + 1
        for line in lines[1:]:
            s, sigma, q, cls, k_r, _ = line.split(",")
            crit = 2.0 * float(s) - 1.0
            if abs(float(sigma) - crit) < 1e-9:
                assert cls == "degenerate"
            else:
                want = "unstable" if float(sigma) > crit else "stable"
                assert cls == want

    def test_degenerate_cells_have_no_real_eigenvalue(self, capsys):
        # s = 1.8 and 3.6 put sigma* = 2s/3 - 1 at 0.2 and 1.4
        code, out, _ = run(["stability-map", "--n", "3",
                            "--s-range", "1.8:3.6:2",
                            "--sigma-range", "0.2:1.4:2"], capsys)
        assert code == 0
        cells = [line.split(",") for line in out.splitlines()[1:]]
        degenerate = [c for c in cells if c[3] == "degenerate"]
        assert len(degenerate) == 2
        assert all(c[4] == "0" for c in degenerate)

    def test_requires_valid_s_range(self, capsys):
        code, _, err = run(["stability-map", "--n", "2",
                            "--s-range", "0.5:3:5",
                            "--sigma-range", "1:2:3"], capsys)
        assert code == 2

    def test_jobs_deterministic(self, capsys, tmp_path):
        argv = ["stability-map", "--s-range", "0.6:2:4",
                "--sigma-range", "0.5:3:4"]
        _, seq, _ = run(argv, capsys)
        code, _, _ = run(argv + ["--jobs", "3", "--out", str(tmp_path)],
                         capsys)
        assert code == 0
        assert (tmp_path / "stability_map.csv").read_text() == seq
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "stability-map"
        assert manifest["outputs"] == ["stability_map.csv"]


class TestVariationalCmd:
    def test_rows_and_monotone_summary(self, capsys):
        code, out, _ = run(["variational", "--scales", "4,8"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "N,m_N,gap,iterations,residual"
        gaps = [float(l.split(",")[2]) for l in lines[1:]]
        assert gaps[0] > gaps[1] > 0

    def test_box_no_wider_than_spacing_exits_2(self, capsys):
        # L = 40 omega^{-1/(2s)} is 1.9e-7 here, the spacing 1/64
        code, _, err = run(["variational", "--omega", "1e10", "--s", "0.6"],
                           capsys)
        assert code == 2
        assert err.startswith("error: box [-1.85664e-07, 1.85664e-07] is no "
                              "wider than the mollifier grid spacing 0.015625")


class TestSimulate:
    def test_writes_series_and_manifest(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma = 2\nmodes = 1024\ndt = 2.5e-4\n"
                       "t_final = 1.2\neps = 1e-4\nshape = greens-bump\n"
                       "sample_every = 80\n")
        out_dir = tmp_path / "out"
        code, _, _ = run(["simulate", "--config", str(cfg),
                          "--out", str(out_dir)], capsys)
        assert code == 0
        series = (out_dir / "series.csv").read_text().splitlines()
        assert series[0] == "t,mass_drift,energy_drift,center_modulus," \
                            "mod_distance"
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert "growth_rate" in manifest["summary"]
        assert manifest["parameters"]["sigma"] == 2.0
        assert 0.0 < manifest["summary"]["steps_per_s"] < math.inf

    def test_unknown_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sigma = 2\nbogus = 1\n")
        code, _, err = run(["simulate", "--config", str(cfg),
                            "--out", str(tmp_path / "o")], capsys)
        assert code == 2
        assert "bogus" in err

    @pytest.mark.parametrize("line", ["dt = nan", "half_length = nan",
                                      "t_final = inf", "sample_every = 0",
                                      "seed = -1", "s = 400",
                                      "half_length = 1e-300",
                                      "t_final = 0.02"])
    def test_non_finite_or_empty_setting_exits_2(self, capsys, tmp_path,
                                                 line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"t_final = 0.01\n{line}\n")
        code, _, err = run(["simulate", "--config", str(cfg),
                            "--out", str(tmp_path / "o")], capsys)
        assert code == 2
        assert err.startswith("error: ")

    def test_repeated_key_names_both_lines(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma = 1\nmodes = 512\nsigma = 2\n")
        code, _, err = run(["simulate", "--config", str(cfg),
                            "--out", str(tmp_path / "o")], capsys)
        assert code == 2
        assert err == f"error: {cfg}:3: key 'sigma' already set on line 1\n"

    def test_every_simconfig_field_is_a_key(self, tmp_path):
        hints = typing.get_type_hints(SimConfig)
        assert _sim_keys() == {f.name: hints[f.name]
                             for f in dataclasses.fields(SimConfig)}
        values = {"n": 1, "s": 1.5, "omega": 2.0, "sigma": 0.5,
                  "half_length": 30.0, "modes": 512, "dt": 1e-4,
                  "t_final": 0.5, "eps": 0.1, "shape": "noise", "seed": 5,
                  "sample_every": 7}
        path = tmp_path / "all.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        cfg = SimConfig(**_parse_sim_config(str(path)))
        assert dataclasses.asdict(cfg) == values
        # every value but n (the simulator is 1-D) differs from its default
        default = SimConfig()
        assert [k for k in values if getattr(default, k) == values[k]] == ["n"]

    def test_requires_out(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma = 1\n")
        code, _, _ = run(["simulate", "--config", str(cfg)], capsys)
        assert code == 2

    def test_determinism(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma = 0.5\nmodes = 512\ndt = 1e-3\n"
                       "t_final = 0.2\neps = 0.01\nshape = noise\n"
                       "seed = 11\nsample_every = 20\n")
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run(["simulate", "--config", str(cfg), "--out", str(d1)], capsys)
        run(["simulate", "--config", str(cfg), "--out", str(d2)], capsys)
        assert (d1 / "series.csv").read_text() == \
               (d2 / "series.csv").read_text()


def _python(code: str) -> list[str]:
    """Run code in a fresh interpreter that imports this checkout's cnls;
    return its standard output lines."""
    src = str(Path(cnls.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [e for e in env.get("PYTHONPATH", "").split(os.pathsep) if e])
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.splitlines()


class TestImports:
    def test_closed_form_commands_leave_numpy_unimported(self, tmp_path):
        # numpy's import takes longer than a closed-form command's work, so
        # --help, stability-map, spectrum, pohozaev and profile run on math
        # alone, and with one job no process pool is loaded
        cfg = tmp_path / "run.cfg"
        cfg.write_text("modes = 256\nt_final = 0.01\n")
        code = ("import sys\n"
                "from cnls.cli import main\n"
                "HEAVY = ('numpy', 'multiprocessing', 'concurrent.futures')\n"
                "try:\n"
                "    main(['--help'])\n"
                "except SystemExit as e:\n"
                "    assert e.code == 0\n"
                "runs = [['stability-map', '--n', str(n), '--jobs', '1',\n"
                "         '--s-range', f'{n / 2 + 0.2}:{n / 2 + 1.5}:2',\n"
                "         '--sigma-range', '0.5:3:2', '--with-lambda']\n"
                "        for n in (1, 2, 3)]\n"
                "runs += [['spectrum', '--sigma', '2'], ['pohozaev']]\n"
                "runs += [['profile', '--n', str(n), '--s', str(n),\n"
                "          '--r-range', '0:30:7'] for n in (1, 2, 3)]\n"
                "for argv in runs:\n"
                "    assert main(argv) == 0, argv\n"
                "print('loaded', [m for m in HEAVY if m in sys.modules])\n"
                f"runs = [['simulate', '--config', {str(cfg)!r},\n"
                f"         '--out', {str(tmp_path / 'out')!r}],\n"
                "        ['constants'], ['variational', '--scales', '4']]\n"
                "for argv in runs:\n"
                "    assert main(argv) == 0, argv\n"
                "print('loaded', 'numpy' in sys.modules)\n")
        lines = _python(code)
        # every stability-map has 2 or 3 unstable cells: 8 roots, all > 0
        unstable = [r.split(",") for r in lines if ",unstable," in r]
        assert len(unstable) == 8 and all(float(r[-1]) > 0 for r in unstable)
        assert [r for r in lines if r.startswith("loaded ")] == [
            "loaded []", "loaded True"]

    def test_commands_leave_scipy_unimported(self, tmp_path):
        # scipy.special costs more to import than most commands take to
        # run, so no command loads it, nor numpy.polynomial with it
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma = 2\nmodes = 256\nt_final = 0.01\n")
        code = ("import sys\n"
                "from cnls.cli import main\n"
                "from cnls.moments import PhysParams\n"
                "from cnls.spectrum import coercivity_gap, lpm_eigenvalues\n"
                "def scipy():\n"
                "    return sorted(m for m in sys.modules\n"
                "                  if m.split('.')[0] == 'scipy')\n"
                "runs = [['stability-map', '--s-range', '0.8:1.5:2',\n"
                "         '--sigma-range', '0.5:3:2', '--with-lambda'],\n"
                f"        ['simulate', '--config', {str(cfg)!r},\n"
                f"         '--out', {str(tmp_path / 'out')!r}],\n"
                "        ['spectrum', '--sigma', '2'],\n"
                "        ['constants'], ['pohozaev'],\n"
                "        ['profile', '--n', '1', '--r-range', '0:2:3'],\n"
                "        ['profile', '--n', '2', '--s', '2',\n"
                "         '--r-range', '0:30:7'],\n"
                "        ['profile', '--n', '3', '--s', '2',\n"
                "         '--r-range', '0:2:3'],\n"
                "        ['variational', '--scales', '4'], ['verify']]\n"
                "for argv in runs:\n"
                "    assert main(argv) == 0, argv\n"
                "lpm_eigenvalues(PhysParams(1, 1.0, 1.0, 1.0))\n"
                "coercivity_gap(PhysParams(1, 1.0, 1.0, 0.5))\n"
                "print('loaded', scipy())\n"
                "assert 'numpy.polynomial' not in sys.modules\n")
        lines = _python(code)
        unstable = [r.split(",") for r in lines if ",unstable," in r]
        assert len(unstable) == 2 and all(float(r[-1]) > 0 for r in unstable)
        assert [r for r in lines if r.startswith("loaded ")] == ["loaded []"]

    # `dataclasses` (with inspect, ast, dis and tokenize) and the layers a
    # command does not run cost more to import than a closed-form command's
    # work, so each command, run alone, leaves them unloaded
    CENSUS = [
        (["--help"], ("dataclasses",)),
        (["stability-map", "--n", "2", "--s-range", "1.2:2.5:2",
          "--sigma-range", "0.5:3:2", "--with-lambda"],
         ("dataclasses", "cnls.waves")),
        (["spectrum", "--sigma", "2"], ("dataclasses", "cnls.waves")),
        (["spectrum", "--sigma", "2", "--format", "json"],
         ("dataclasses", "cnls.waves")),
        (["pohozaev"], ("dataclasses",)),
        (["profile", "--n", "2", "--s", "2", "--r-range", "0:3:4"],
         ("dataclasses", "cnls.spectrum")),
    ]

    @pytest.mark.parametrize("argv,unloaded", CENSUS,
                             ids=[" ".join(a) for a, _ in CENSUS])
    def test_commands_load_only_the_modules_they_run(self, argv, unloaded):
        code = ("import sys\n"
                "from cnls.cli import main\n"
                "try:\n"
                f"    code = main({argv!r})\n"
                "except SystemExit as e:\n"
                "    code = e.code\n"
                f"print('exit', code, [m for m in {unloaded!r}\n"
                "                     if m in sys.modules])\n")
        assert _python(code)[-1] == "exit 0 []"

    def test_package_names_load_their_layer_on_first_access(self):
        code = ("import sys\n"
                "import cnls, cnls.cli\n"
                "print(sorted(m for m in sys.modules if m.startswith('cnls')))\n"
                "from cnls import RadialProfile, SpectralReport, classify\n"
                "import cnls.spectrum as sp, cnls.waves as wv\n"
                "assert classify is sp.classify is cnls.cli.classify\n"
                "assert SpectralReport is sp.SpectralReport\n"
                "assert RadialProfile is wv.RadialProfile\n"
                "assert cnls.soliton_profile is wv.soliton_profile\n"
                "assert cnls.sobolev_constant is wv.sobolev_constant\n"
                "print('ok')\n")
        assert _python(code) == [
            "['cnls', 'cnls.cli', 'cnls.moments', 'cnls.numerics']", "ok"]
