"""The package's records are immutable NamedTuples; the checked ones
(PhysParams, FourierGrid) reject bad fields however they are built:
directly, by `_replace`, or by unpickling in a `--jobs` worker."""

import math
import pickle

import pytest

from cnls.moments import FourierGrid, PhysParams
from cnls.numerics import DomainError
from cnls.spectrum import SpectralReport, classify
from cnls.waves import (PohozaevReport, RadialProfile, pohozaev_check,
                        soliton_profile)

P = PhysParams(n=1, s=1.0, omega=1.0, sigma=1.0)

# (record type, valid fields, a field to replace, its bad value, message)
CHECKED = [
    (PhysParams, (1, 1.0, 1.0, 1.0), "s", 0.5,
     "requires s > n/2, got s=0.5, n=1"),
    (PhysParams, (1, 1.0, 1.0, 1.0), "n", 0,
     "n must be a positive integer, got 0"),
    (PhysParams, (1, 1.0, 1.0, 1.0), "n", 1.5,
     "n must be a positive integer, got 1.5"),
    (PhysParams, (1, 1.0, 1.0, 1.0), "omega", -1.0,
     "requires omega > 0, got -1.0"),
    (PhysParams, (1, 1.0, 1.0, 1.0), "sigma", 0.0,
     "requires sigma > 0, got 0.0"),
    (PhysParams, (1, 1.0, 1.0, 1.0), "omega", math.nan,
     "omega must be finite, got nan"),
    (PhysParams, (1, 1.0, 1.0, 1.0), "n", math.inf,
     "n must be finite, got inf"),
    (FourierGrid, (1.0, 8), "modes", 7, "modes must be even and >= 2, got 7"),
    (FourierGrid, (1.0, 8), "modes", 0, "modes must be even and >= 2, got 0"),
]
IDS = [f"{cls.__name__}-{field}={bad}" for cls, _, field, bad, _ in CHECKED]


def _bad_fields(cls, fields, field, bad):
    values = list(fields)
    values[cls._fields.index(field)] = bad
    return values


@pytest.mark.parametrize("cls,fields,field,bad,message", CHECKED, ids=IDS)
class TestCheckedRecords:
    def test_construction(self, cls, fields, field, bad, message):
        values = _bad_fields(cls, fields, field, bad)
        with pytest.raises(DomainError) as err:
            cls(*values)
        assert str(err.value) == message
        with pytest.raises(DomainError) as err:
            cls(**dict(zip(cls._fields, values)))
        assert str(err.value) == message

    def test_replace_checks(self, cls, fields, field, bad, message):
        with pytest.raises(DomainError) as err:
            cls(*fields)._replace(**{field: bad})
        assert str(err.value) == message

    def test_pickle_round_trip(self, cls, fields, field, bad, message):
        good = cls(*fields)
        back = pickle.loads(pickle.dumps(good))
        assert type(back) is cls and back == good
        # an instance that skipped the checks is checked when it is unpickled
        forged = tuple.__new__(cls, _bad_fields(cls, fields, field, bad))
        data = pickle.dumps(forged)
        with pytest.raises(DomainError) as err:
            pickle.loads(data)
        assert str(err.value) == message


def _records():
    return [P, FourierGrid(half_length=2.0, modes=8), classify(P),
            soliton_profile([0.0, 1.0], P), pohozaev_check(P)]


@pytest.mark.parametrize("record", _records(),
                         ids=lambda r: type(r).__name__)
def test_fields_cannot_be_assigned(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], 0.0)
    with pytest.raises(AttributeError):
        record.extra = 0.0


def test_record_types():
    assert [type(r) for r in _records()] == [
        PhysParams, FourierGrid, SpectralReport, RadialProfile, PohozaevReport]


def test_repr_names_the_fields():
    assert repr(PhysParams(n=1, s=1.0, omega=2.0, sigma=0.5)) == \
        "PhysParams(n=1, s=1.0, omega=2.0, sigma=0.5)"
    assert repr(FourierGrid(half_length=2.0, modes=8)) == \
        "FourierGrid(half_length=2.0, modes=8)"


def test_derived_values():
    assert PhysParams(n=3, s=2.0, omega=1.0, sigma=1.0).a == 0.75
    assert FourierGrid(half_length=2.0, modes=8).h == 0.5
