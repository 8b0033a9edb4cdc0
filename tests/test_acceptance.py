"""End-to-end acceptance suite.

Criteria 1-8 and the fast half of 9 are the invariant checks behind the
`verify` command; they are asserted one-by-one here so a failure names the
claim.  The slow half of 9 (long stable run, unstable growth rate) and the
wiring of the `verify` command (10) run only in this file.
"""

import json
import math

import numpy as np
import pytest

from cnls import verify
from cnls.cli import main
from cnls.dynamics import SimConfig, run_experiment


@pytest.mark.parametrize("check", verify.ALL_CHECKS,
                         ids=[c.__name__ for c in verify.ALL_CHECKS])
def test_invariant_checks(check):
    res = check()
    assert res.passed, f"{res.name}: {res.detail}"


class TestDynamicsAcceptance:
    def test_stable_run_long_horizon(self):
        # sigma = 1/2 (subcritical), eps = 1e-3: modulated distance stays
        # within 5x its initial value out to t = 50
        cfg = SimConfig(sigma=0.5, half_length=40.0, modes=1024, dt=2.5e-4,
                        t_final=50.0, eps=1e-3, shape="greens-bump",
                        sample_every=2000)
        ts = run_experiment(cfg)
        assert ts.blow_up_time is None
        assert ts.mod_distance.max() < 5.0 * ts.mod_distance[0]
        assert ts.mass_drift.max() < 1e-10
        assert np.abs(ts.center_modulus - ts.center_modulus[0]).max() \
            < 0.05 * ts.center_modulus[0]

    def test_unstable_growth_rate(self):
        # sigma = 2 (supercritical), eps = 1e-4: fitted exponential rate of
        # the modulated distance within 15% of the linearized eigenvalue
        # 4 sqrt(3)
        cfg = SimConfig(sigma=2.0, half_length=40.0, modes=2048, dt=1e-4,
                        t_final=1.6, eps=1e-4, shape="greens-bump",
                        sample_every=100)
        ts = run_experiment(cfg)
        lam = 4.0 * math.sqrt(3.0)
        assert ts.growth_rate is not None
        assert abs(ts.growth_rate - lam) / lam < 0.15


def _passing_stub():
    return verify.CheckResult("stub-pass", True, "ok")


def _failing_stub():
    return verify.CheckResult("stub-fail", False, "off by one")


class TestVerifyCommand:
    # wiring only: test_invariant_checks runs each real check once
    def test_verify_exits_zero(self, capsys, monkeypatch):
        monkeypatch.setattr(verify, "ALL_CHECKS", (_passing_stub,))
        assert main(["verify", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert out == "PASS stub-pass: ok\n"

        monkeypatch.setattr(verify, "ALL_CHECKS",
                            (_passing_stub, _failing_stub))
        assert main(["verify", "--jobs", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines() == ["PASS stub-pass: ok",
                                             "FAIL stub-fail: off by one"]
        assert "stub-fail" in captured.err
        assert "stub-pass" not in captured.err

    def test_manifest_lists_each_check_time(self, capsys, monkeypatch,
                                            tmp_path):
        # the times go to the manifest only; stdout keeps its lines
        monkeypatch.setattr(verify, "ALL_CHECKS",
                            (_passing_stub, _failing_stub))
        assert main(["verify", "--jobs", "1", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().out == \
            "PASS stub-pass: ok\nFAIL stub-fail: off by one\n"
        summary = json.loads((tmp_path / "manifest.json").read_text())["summary"]
        seconds = summary["seconds"]
        assert list(seconds) == ["stub-pass", "stub-fail"]
        assert all(0.0 <= t < 1.0 for t in seconds.values())
        assert [r.seconds is not None for r in verify.run_all()] == [True] * 2
