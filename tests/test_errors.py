"""Three exception classes, one exit-code rule.

The package defines NumericsError, its DomainError (input outside the
model's or the command's range) and its BlowUp (a simulated field that
became non-finite), each once, and raises no other class except where a
protocol requires one.  The CLI exits 2 on a DomainError and 1 on any other
NumericsError.
"""

import ast
import csv
import importlib
import inspect
import io
import pkgutil
import re
from pathlib import Path

import pytest

import cnls
from cnls import cli
from cnls.cli import main
from cnls.numerics import NumericsError


def _package_modules():
    return [importlib.import_module(f"cnls.{m.name}")
            for m in pkgutil.iter_modules(cnls.__path__)]


def test_every_exception_derives_from_numerics_error():
    defined = [obj for mod in _package_modules()
               for obj in vars(mod).values()
               if inspect.isclass(obj) and issubclass(obj, BaseException)
               and obj.__module__ == mod.__name__]
    assert len(defined) == 3
    assert {cls.__name__ for cls in defined} == {"NumericsError",
                                                  "DomainError", "BlowUp"}
    assert all(issubclass(cls, NumericsError) for cls in defined)


def test_each_exception_name_has_one_definition():
    by_name = {}
    for mod in _package_modules():
        for name, obj in vars(mod).items():
            if inspect.isclass(obj) and issubclass(obj, BaseException) \
                    and obj.__module__.startswith("cnls"):
                by_name.setdefault(name, set()).add(obj)
    assert all(len(objs) == 1 for objs in by_name.values()), by_name


class _Raises(ast.NodeVisitor):
    """(enclosing function, raised expression or None) of every raise."""

    def __init__(self):
        self.func, self.found = None, []

    def visit_FunctionDef(self, node):
        outer, self.func = self.func, node.name
        self.generic_visit(node)
        self.func = outer

    def visit_Raise(self, node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        self.found.append((self.func, exc and ast.unparse(exc)))


def test_every_raise_names_one_of_the_three_classes():
    # besides the package's classes and bare re-raises, only the two raises
    # a protocol requires: a module's __getattr__ (PEP 562) raises
    # AttributeError, and an argparse type converter ArgumentTypeError,
    # which argparse turns into its own exit 2
    bad, count = [], 0
    for path in sorted(Path(cnls.__file__).parent.glob("*.py")):
        scan = _Raises()
        scan.visit(ast.parse(path.read_text()))
        for func, name in scan.found:
            count += 1
            if name in (None, "DomainError", "NumericsError", "BlowUp",
                        "argparse.ArgumentTypeError") \
                    or (func, name) == ("__getattr__", "AttributeError"):
                continue
            bad.append(f"{path.name}:{func}: raise {name}")
    assert count > 50
    assert not bad


# valid input whose value leaves the float range, and the quantity that
# the failure names
FLOAT_RANGE = [
    (["spectrum", "--omega", "1e-170", "--no-lambda"],
     "Vakhitov-Kolokolov quantity Q"),
    (["stability-map", "--omega", "1e-300", "--s-range", "1:2:2",
      "--sigma-range", "0.5:1:2"], "Vakhitov-Kolokolov quantity Q"),
    (["constants", "--omega", "1e-300"], "moment M_2"),
    (["pohozaev", "--sigma", "1e-300"], "phi(0) = M_1^(-1/(2 sigma))"),
    # M_2 ~ omega^{-3/2} underflows to 0
    (["pohozaev", "--omega", "1e300"], "moment M_2"),
    (["pohozaev", "--sigma", "5e-4"], "K^2 = phi(0)^(4 sigma + 2)"),
    (["profile", "--sigma", "1e-300", "--r-range", "0:1:3"],
     "profile norm M_1^(1 + 1/(2 sigma))"),
    # 2s overflows, and with it the Beta form's prefactor
    (["constants", "--s", "1e308"], "moment M_1"),
    (["spectrum", "--s", "1e308"], "moment M_1"),
    # the quadrature's scales (2 pi)^{2s} and omega^j, and its value at a
    # subnormal omega
    (["constants", "--s", "1000"], "quadrature moment M_1"),
    (["pohozaev", "--quadrature", "--omega", "1e-300"],
     "quadrature moment M_2"),
    (["pohozaev", "--quadrature", "--s", "100", "--omega", "1e-320"],
     "quadrature moment M_1"),
    (["spectrum", "--omega", "1e100", "--sigma", "1e300"],
     "mu_+ = (2 sigma + 1) c^2"),
    # omega (mu/c^2)^{1/(1-a)} overflows though the power alone does not
    (["spectrum", "--omega", "1e10", "--sigma", "1e150"],
     "bound-state eigenvalue of L_mu (L+ at mu = (2 sigma + 1) c^2)"),
    # 2 sigma omega^2 overflows: Q would read 0 beside "unstable"
    (["spectrum", "--omega", "1e300", "--sigma", "2"],
     "Vakhitov-Kolokolov quantity Q"),
    # 58 of the ray rule's 290 nodes k overflow: every r > 0 would be NaN
    (["profile", "--n", "1", "--s", "0.5000001", "--omega", "1e300",
      "--r-range", "0:1:3"], "Green's function node k = kappa y e^(i theta)"),
    # past n = 343 Gamma(n/2), and past n = 386 (2 pi)^n, overflow, and the
    # log form finds M_1 below the float range: 3.65e-593 at n = 400
    (["constants", "--n", "344", "--s", "200"], "moment M_1"),
    (["spectrum", "--n", "400", "--s", "201"], "moment M_1"),
    (["pohozaev", "--n", "400", "--s", "201"], "moment M_1"),
]

EXIT_CODES = [
    # valid input at the embedding edge s -> n/2: the moment quadrature
    # subtracts its slow rho^{-1-(2s-n)} tail and adds it back analytically,
    # so it converges where the tail alone would never meet the tolerance
    # (n = 1) or would overflow before it (n = 3)
    (["constants", "--n", "1", "--s", "0.5000001"], 0),
    (["constants", "--n", "3", "--s", "1.5000001"], 0),
    (["constants", "--n", "1", "--s", "0.52"], 0),
    (["constants", "--n", "2", "--s", "1.02"], 0),
    # unstable eigenvalue ~4e71, beyond the old 1e12 omega bracket cap
    (["spectrum", "--n", "3", "--s", "1.51", "--sigma", "0.99"], 0),
    (["variational", "--scales", "4,nan"], 2),
    (["variational", "--scales", "inf"], 2),
    (["variational", "--scales", "4,1e9"], 2),
    (["stability-map", "--s-range", "1:2:3", "--sigma-range", "0.5:1:2",
      "--jobs", "0"], 2),
    (["stability-map", "--s-range", "1:2:3", "--sigma-range", "0.5:1:2",
      "--jobs", "-5"], 2),
    # the L+ bound-state eigenvalue overflows a float as a = n/(2s) -> 1
    (["spectrum", "--n", "3", "--s", "1.5001", "--sigma", "0.99",
      "--no-lambda"], 1),
    (["spectrum", "--s", "inf"], 2),
    (["profile", "--n", "4", "--s", "3"], 2),
    # above waves.MAX_POINTWISE_S, before the ray rule builds its nodes
    (["profile", "--s", "1000.0000000000001", "--r-range", "0:1:3"], 2),
] + [(argv, 1) for argv, _ in FLOAT_RANGE]


@pytest.mark.parametrize("argv,code", EXIT_CODES,
                         ids=[" ".join(a) for a, _ in EXIT_CODES])
def test_exit_code(capsys, argv, code):
    assert main(argv) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("error: ")
    elif code == 1:
        assert err.startswith("failure: NumericsError: ")


@pytest.mark.parametrize("argv,quantity", FLOAT_RANGE,
                         ids=[" ".join(a) for a, _ in FLOAT_RANGE])
def test_float_range_failure_names_the_quantity(capsys, argv, quantity):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"NumericsError: {quantity} leaves the float range" in err


def _sweep():
    """cli argv over n in {1, 3}, s from n/2 (1 + 2e-7) to 1000, then past
    Gamma(n/2)'s overflow, n in {344, 400, 1300} with s up to 1e300, and
    omega and sigma at both ends of the float range: valid input
    throughout."""
    ends = ("1e-300", "1", "1e300")
    cells = [(n, s) for n in (1, 3)
             for s in (n / 2 * (1 + 2e-7), float(n), 100.0, 1000.0)]
    cells += [(n, s) for n in (344, 400, 1300)
              for s in (n / 2 * (1 + 2e-7), float(n), 1e4, 1e300)]
    for n, s in cells:
        at = ["--n", str(n), "--s", repr(s)]
        for om in ends:
            yield ["constants", *at, "--omega", om]
            for sig in ends:
                p = [*at, "--omega", om, "--sigma", sig]
                yield ["spectrum", *p]
                yield ["pohozaev", *p]
                yield ["pohozaev", "--quadrature", *p]
                # pointwise values exist for n <= 3, and the ray rule is
                # slow to build at s = 1e3
                if n <= 3 and s <= 100:
                    yield ["profile", *p, "--r-range", "0:2:5"]
                yield ["stability-map", "--n", str(n), "--omega", om,
                       "--s-range", f"{s!r}:{s!r}:1", "--sigma-range",
                       f"{sig}:{sig}:1", "--with-lambda"]


def _q_and_label(command, out):
    rows = list(csv.reader(io.StringIO(out)))
    if command == "spectrum":
        fields = dict(rows[1:])
        return float(fields["vk_quantity"]), fields["classification"]
    if command == "stability-map":
        cell = dict(zip(*rows))
        return float(cell["Q"]), cell["classification"]
    return None, None


def test_sweep_to_the_ends_of_the_float_range(capsys):
    # each run exits by the rule, and a run that exits 0 printed only
    # floats: no inf or nan, and Q = 0 only on a degenerate cell
    bad = []
    for argv in _sweep():
        code = main(argv)
        out, err = capsys.readouterr()
        run = " ".join(argv)
        if code not in (0, 1, 2) or "unexpected" in err:
            bad.append(f"{run}: exit {code}, {err.strip()}")
        elif code == 0:
            q, label = _q_and_label(argv[0], out)
            if re.search(r"\b(inf|nan)\b", out):
                bad.append(f"{run}: prints inf or nan")
            elif q == 0.0 and label != "degenerate":
                bad.append(f"{run}: Q = 0 beside {label}")
    assert not bad


def test_float_range_rule_lives_in_numerics():
    # only numerics turns an OverflowError into inf, and only its
    # _in_float_range forms the failure's message
    names = []
    for path in sorted(Path(cnls.__file__).parent.glob("*.py")):
        text = path.read_text()
        if "OverflowError" in text or "leaves the float range" in text:
            names.append(path.name)
    assert names == ["numerics.py"]


def test_exception_the_package_does_not_raise_exits_1(capsys, monkeypatch):
    def boom(args):
        raise ZeroDivisionError("float division by zero")
    monkeypatch.setattr(cli, "cmd_constants", boom)
    assert main(["constants"]) == 1
    assert capsys.readouterr().err == (
        "failure: unexpected ZeroDivisionError: float division by zero\n")
