"""The package's immutable records: read-only fields, value equality, repr and validation."""

import copy
import pickle
from fractions import Fraction

import mpmath as mp
import pytest

from congruence_stacks.analytic import Check, CircleProfile, DecayFit, RemainderCheck
from congruence_stacks.asymptotics import ArcContext, ComparisonRecord
from congruence_stacks.oracle import StackWitness
from congruence_stacks.params import StackParams
from congruence_stacks.qseries import DecompositionReport, TruncatedSeries

P13 = StackParams(1, 3)
P13_REPR = "StackParams(r=1, m=3)"

# (class, fields, the same fields with one value changed, repr)
RECORDS = [
    (StackParams, {"r": 1, "m": 3}, {"r": 1, "m": 4}, P13_REPR),
    (
        StackWitness,
        {"left": (1, 1), "peak": 4, "right": (2,)},
        {"left": (1,), "peak": 4, "right": (2,)},
        "StackWitness(left=(1, 1), peak=4, right=(2,))",
    ),
    (TruncatedSeries, {"coeffs": (0, 1, 1)}, {"coeffs": (0, 1, 2)}, "TruncatedSeries(coeffs=(0, 1, 1))"),
    (
        DecompositionReport,
        {"params": P13, "order": 10, "mismatches": (), "max_abs_residual": 0},
        {"params": P13, "order": 10, "mismatches": (3,), "max_abs_residual": 1},
        f"DecompositionReport(params={P13_REPR}, order=10, mismatches=(), max_abs_residual=0)",
    ),
    (
        ArcContext,
        {"params": P13, "n": 100, "A": mp.mpf(1), "B": Fraction(601, 6), "prefactor": mp.mpf("0.5"),
         "kappa": mp.mpf("0.25"), "scale": mp.mpf(4), "rho": 0.9, "dps": 50},
        {"params": P13, "n": 100, "A": mp.mpf(1), "B": Fraction(601, 6), "prefactor": mp.mpf("0.5"),
         "kappa": mp.mpf("0.25"), "scale": mp.mpf(4), "rho": 0.5, "dps": 50},
        f"ArcContext(params={P13_REPR}, n=100, A=mpf('1.0'), B=Fraction(601, 6), prefactor=mpf('0.5'), "
        "kappa=mpf('0.25'), scale=mpf('4.0'), rho=0.9, dps=50)",
    ),
    (
        ComparisonRecord,
        {"n": 10, "exact": 10, "estimate": mp.mpf(15), "relative_error": mp.mpf("0.5")},
        {"n": 10, "exact": 11, "estimate": mp.mpf(15), "relative_error": mp.mpf("0.5")},
        "ComparisonRecord(n=10, exact=10, estimate=mpf('15.0'), relative_error=mpf('0.5'))",
    ),
    (
        DecayFit,
        {"params": P13, "slope": -13.0, "expected": -13.5, "points": ((1.0, -2.0), (2.0, -4.0)),
         "excluded": 0, "dps": 60},
        {"params": P13, "slope": -12.0, "expected": -13.5, "points": ((1.0, -2.0), (2.0, -4.0)),
         "excluded": 0, "dps": 60},
        f"DecayFit(params={P13_REPR}, slope=-13.0, expected=-13.5, points=((1.0, -2.0), (2.0, -4.0)), "
        "excluded=0, dps=60)",
    ),
    (
        RemainderCheck,
        {"a": 3, "b": -7, "tau": 0.1j, "delta": mp.mpf(1), "bound": mp.mpf(2)},
        {"a": 3, "b": -7, "tau": 0.2j, "delta": mp.mpf(1), "bound": mp.mpf(2)},
        "RemainderCheck(a=3, b=-7, tau=0.1j, delta=mpf('1.0'), bound=mpf('2.0'))",
    ),
    (
        Check,
        {"name": "eta inversion", "ok": True, "measured": mp.mpf(1), "tolerance": mp.mpf(2), "detail": ""},
        {"name": "eta inversion", "ok": False, "measured": mp.mpf(3), "tolerance": mp.mpf(2), "detail": ""},
        "Check(name='eta inversion', ok=True, measured=mpf('1.0'), tolerance=mpf('2.0'), detail='')",
    ),
    (
        CircleProfile,
        {"params": P13, "n": 50, "kappa": 0.25, "rho": 0.5, "nus": (-1.0, 0.0, 1.0),
         "log_magnitudes": (0.0, 1.0, 0.0)},
        {"params": P13, "n": 51, "kappa": 0.25, "rho": 0.5, "nus": (-1.0, 0.0, 1.0),
         "log_magnitudes": (0.0, 1.0, 0.0)},
        f"CircleProfile(params={P13_REPR}, n=50, kappa=0.25, rho=0.5, nus=(-1.0, 0.0, 1.0), "
        "log_magnitudes=(0.0, 1.0, 0.0))",
    ),
]
RECORD_PARAMS = [pytest.param(*case, id=case[0].__name__) for case in RECORDS]


@pytest.mark.parametrize("cls,fields,changed,expected_repr", RECORD_PARAMS)
def test_fields_are_read_only(cls, fields, changed, expected_repr):
    record = cls(**fields)
    for name, value in changed.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert record == cls(**fields)


@pytest.mark.parametrize("cls,fields,changed,expected_repr", RECORD_PARAMS)
def test_equal_fields_give_equal_records_with_equal_hashes(cls, fields, changed, expected_repr):
    record = cls(**fields)
    twin = cls(*fields.values())
    assert twin is not record
    assert twin == record and not twin != record
    assert hash(twin) == hash(record)
    assert cls(**changed) != record


@pytest.mark.parametrize("cls,fields,changed,expected_repr", RECORD_PARAMS)
def test_repr_is_unchanged(cls, fields, changed, expected_repr):
    assert repr(cls(**fields)) == expected_repr


@pytest.mark.parametrize("cls,fields,changed,expected_repr", RECORD_PARAMS)
def test_copies_and_pickles_equal_the_record(cls, fields, changed, expected_repr):
    record = cls(**fields)
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record


def test_truncated_series_indexes_coefficients_not_fields():
    series = TruncatedSeries((5, 6, 7))
    assert not isinstance(series, tuple)
    assert (series[0], series[2], series.order) == (5, 7, 2)
    with pytest.raises(IndexError, match=r"coefficient index 3 outside \[0, 2\]"):
        series[3]


STACK_PARAMS_ERRORS = [
    pytest.param((True, 3), r"must be integers \(not bool\), got r=True, m=3", id="bool"),
    pytest.param((1, "3"), r"must be integers \(not bool\), got r=1, m='3'", id="str"),
    pytest.param((1, 1), "modulus m must exceed 1, got m=1", id="modulus"),
    pytest.param((3, 3), "residue must satisfy 0 < r < m, got r=3, m=3", id="residue"),
    pytest.param((2, 4), r"r and m must be coprime, got gcd\(2, 4\) = 2", id="coprime"),
    pytest.param((1, 2), "no variant exists at 2r = m; the modulus must exceed 2", id="2r=m"),
]


@pytest.mark.parametrize("route", ["positional", "keyword", "_make", "_replace"])
@pytest.mark.parametrize("values,message", STACK_PARAMS_ERRORS)
def test_stack_params_validate_on_every_construction_path(values, message, route):
    r, m = values
    build = {
        "positional": lambda: StackParams(r, m),
        "keyword": lambda: StackParams(r=r, m=m),
        "_make": lambda: StackParams._make(values),
        "_replace": lambda: P13._replace(r=r, m=m),
    }[route]
    with pytest.raises(ValueError, match=message):
        build()


VALID_WITNESS = StackWitness((1, 1), 4, (2,))
STACK_WITNESS_ERRORS = [
    pytest.param(((1,), 0, ()), "peak must be positive", id="peak"),
    pytest.param(((0,), 5, ()), "parts must be positive", id="left-part"),
    pytest.param(((), 5, (-2,)), "parts must be positive", id="right-part"),
    pytest.param(((4, 1), 7, ()), "left parts must be nondecreasing", id="left-order"),
    pytest.param(((), 7, (2, 5)), "right parts must be nonincreasing", id="right-order"),
    pytest.param(((9,), 5, ()), "left parts may not exceed the peak", id="left-above-peak"),
    pytest.param(((), 5, (5,)), "right parts must stay strictly below the peak", id="right-at-peak"),
]


@pytest.mark.parametrize("route", ["positional", "keyword", "_make", "_replace"])
@pytest.mark.parametrize("values,message", STACK_WITNESS_ERRORS)
def test_stack_witness_validates_on_every_construction_path(values, message, route):
    left, peak, right = values
    build = {
        "positional": lambda: StackWitness(left, peak, right),
        "keyword": lambda: StackWitness(left=left, peak=peak, right=right),
        "_make": lambda: StackWitness._make(values),
        "_replace": lambda: VALID_WITNESS._replace(left=left, peak=peak, right=right),
    }[route]
    with pytest.raises(ValueError, match=message):
        build()
