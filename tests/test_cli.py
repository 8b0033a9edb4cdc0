import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cnls
from cnls.cli import _parse_range, build_parser, main
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
        assert _parse_range("2:2:1").tolist() == [2.0]

    def test_bad_ranges(self):
        for text in ("0:1", "a:1:5", "1:0:5", "0:1:0", "0:inf:3",
                     "nan:1:3"):
            with pytest.raises(DomainError):
                _parse_range(text)

    def test_parser_builds(self):
        build_parser()


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
            main(["constants", "--tol", tol])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err

    def test_json_format(self, capsys):
        code, out, _ = run(["--format", "json", "constants"], capsys)
        assert code == 0
        obj = json.loads(out)
        by_name = {r["quantity"]: r["value"] for r in obj["rows"]}
        assert by_name["m1_closed"] == pytest.approx(0.5)

    def test_global_flags_after_subcommand(self, capsys):
        code, out, _ = run(["constants", "--format", "json"], capsys)
        assert code == 0
        json.loads(out)


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
                                      "seed = -1"])
    def test_non_finite_or_empty_setting_exits_2(self, capsys, tmp_path,
                                                 line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"t_final = 0.01\n{line}\n")
        code, _, err = run(["simulate", "--config", str(cfg),
                            "--out", str(tmp_path / "o")], capsys)
        assert code == 2
        assert err.startswith("error: ")

    def test_json_format_exits_2_before_any_work(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma = 1\n")
        out_dir = tmp_path / "out"
        code, _, err = run(["simulate", "--config", str(cfg),
                            "--out", str(out_dir), "--format", "json"], capsys)
        assert code == 2
        assert err.startswith("error: ")
        assert not out_dir.exists()

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


class TestImports:
    def test_commands_leave_scipy_unimported(self, tmp_path):
        # scipy.special costs more to import than most commands take to
        # run, so only the n = 2 Green's function may load it
        src = str(Path(cnls.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [e for e in env.get("PYTHONPATH", "").split(os.pathsep)
                     if e])
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma = 2\nmodes = 256\nt_final = 0.01\n")
        code = ("import sys\n"
                "from cnls.cli import main\n"
                "from cnls.moments import PhysParams\n"
                "from cnls.spectrum import lpm_eigenvalues\n"
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
                "        ['profile', '--n', '3', '--s', '2',\n"
                "         '--r-range', '0:2:3']]\n"
                "for argv in runs:\n"
                "    assert main(argv) == 0, argv\n"
                "lpm_eigenvalues(PhysParams(1, 1.0, 1.0, 1.0))\n"
                "print('loaded', scipy())\n"
                "assert main(['profile', '--n', '2', '--s', '2',\n"
                "             '--r-range', '0:2:3']) == 0\n"
                "print('loaded', 'scipy.special' in scipy())\n")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        lines = out.stdout.splitlines()
        unstable = [r.split(",") for r in lines if ",unstable," in r]
        assert len(unstable) == 2 and all(float(r[-1]) > 0 for r in unstable)
        assert [r for r in lines if r.startswith("loaded ")] == [
            "loaded []", "loaded True"]
