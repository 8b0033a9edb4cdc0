"""One exception hierarchy, one exit-code rule.

Every exception class in the package derives from NumericsError and has one
definition; the CLI exits 2 on a DomainError (input outside the model's or
the command's range) and 1 on any other failure.
"""

import importlib
import inspect
import pkgutil

import pytest

import cnls
from cnls import numerics, variational
from cnls.cli import main


def _package_modules():
    return [importlib.import_module(f"cnls.{m.name}")
            for m in pkgutil.iter_modules(cnls.__path__)]


def test_every_exception_derives_from_numerics_error():
    defined = [obj for mod in _package_modules()
               for obj in vars(mod).values()
               if inspect.isclass(obj) and issubclass(obj, BaseException)
               and obj.__module__ == mod.__name__]
    assert len(defined) == 9
    assert all(issubclass(cls, numerics.NumericsError) for cls in defined)


def test_each_exception_name_has_one_definition():
    by_name = {}
    for mod in _package_modules():
        for name, obj in vars(mod).items():
            if inspect.isclass(obj) and issubclass(obj, BaseException) \
                    and obj.__module__.startswith("cnls"):
                by_name.setdefault(name, set()).add(obj)
    assert all(len(objs) == 1 for objs in by_name.values()), by_name
    assert variational.GridTooCoarse is numerics.GridTooCoarse
    assert variational.NonConvergence is numerics.NonConvergence


def test_domain_subclasses():
    for cls in (numerics.UnsupportedDimension, numerics.NotApplicable):
        assert issubclass(cls, numerics.DomainError)


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
]


@pytest.mark.parametrize("argv,code", EXIT_CODES,
                         ids=[" ".join(a) for a, _ in EXIT_CODES])
def test_exit_code(capsys, argv, code):
    assert main(argv) == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("error: ")
    elif code == 1:
        assert err.startswith("failure: NonConvergence")
