"""The contract of the library's value records.

The six result records are immutable value records: built by position or by
keyword, equal and hashed by value within one class and never equal across
classes, printed as Name(field=value, ...), closed to assignment, and readable
through vars(). LucasParams is a NamedTuple, so it is also a plain (s, t) pair.
"""

import pytest

from lucasatoms import (
    AtomDecomposition,
    DivisibilityPattern,
    LinearSolveResult,
    LucasParams,
    RankResult,
    RecurrenceFit,
    Regime,
    ValuationCase,
    fit_recurrence,
)

FIB = LucasParams(1, 1)

# (class, field values in declaration order, the repr of those values)
RECORDS = [
    (LucasParams, {"s": 1, "t": -2}, "LucasParams(s=1, t=-2)"),
    (
        AtomDecomposition,
        {"exponents": {2: (1, 0)}, "is_polynomial": True, "quotient_exponents": {2: 1}},
        "AtomDecomposition(exponents={2: (1, 0)}, is_polynomial=True, quotient_exponents={2: 1})",
    ),
    (
        LinearSolveResult,
        {"status": "solution", "solution": (2, 3), "dimension": 0, "certificate": None},
        "LinearSolveResult(status='solution', solution=(2, 3), dimension=0, certificate=None)",
    ),
    (RankResult, {"rho": 5, "divides_bound": 10}, "RankResult(rho=5, divides_bound=10)"),
    (
        ValuationCase,
        {
            "p": 3, "params": FIB, "regime": Regime.COPRIME_T_ODD_P, "a": 0, "b": 0,
            "s_prime": 1, "t_prime": 1, "delta": 5, "k": 4, "lam": None,
        },
        "ValuationCase(p=3, params=LucasParams(s=1, t=1), regime=<Regime.COPRIME_T_ODD_P:"
        " 'coprime-t-odd-p'>, a=0, b=0, s_prime=1, t_prime=1, delta=5, k=4, lam=None)",
    ),
    (
        DivisibilityPattern,
        {
            "prime": 2, "params": FIB, "horizon": 9, "hit_indices": (3, 6, 9),
            "expected": (3, 6, 9), "matches": True, "ap_expressible": True,
        },
        "DivisibilityPattern(prime=2, params=LucasParams(s=1, t=1), horizon=9,"
        " hit_indices=(3, 6, 9), expected=(3, 6, 9), matches=True, ap_expressible=True)",
    ),
    (
        RecurrenceFit,
        {
            "order": 1, "degree": 0, "window": (10, 20), "status": "refuted",
            "coefficients": None, "dimension": None, "witness_end": 13, "certificate": (1, -1),
        },
        "RecurrenceFit(order=1, degree=0, window=(10, 20), status='refuted',"
        " coefficients=None, dimension=None, witness_end=13, certificate=(1, -1))",
    ),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]
RESULTS = [record for record in RECORDS if record[0] is not LucasParams]


def _hashable(values):
    return all(not isinstance(v, dict) for v in values.values())


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, values, text):
    by_position = cls(*values.values())
    by_keyword = cls(**values)
    mixed = cls(*list(values.values())[:1], **dict(list(values.items())[1:]))
    assert by_position == by_keyword == mixed
    for name, value in values.items():
        assert getattr(by_keyword, name) == value


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=IDS)
def test_wrong_arguments_raise_type_error(cls, values, text):
    args = list(values.values())
    name = next(iter(values))
    with pytest.raises(TypeError):
        cls(*args[:-1])  # a field missing
    with pytest.raises(TypeError):
        cls(*args, args[0])  # one value too many
    with pytest.raises(TypeError):
        cls(*args, **{name: args[0]})  # a field given twice
    with pytest.raises(TypeError):
        cls(*args[:-1], no_such_field=0)


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=IDS)
def test_value_equality_and_hash(cls, values, text):
    a, b = cls(**values), cls(**values)
    assert a is not b and a == b and not a != b
    name, value = next(iter(values.items()))
    other = cls(**{**values, name: (value, "changed")})
    assert a != other
    if _hashable(values):
        assert hash(a) == hash(b)
        assert len({a, b, other}) == 2
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=IDS)
def test_repr_text(cls, values, text):
    assert repr(cls(**values)) == text


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=IDS)
def test_assignment_raises_attribute_error(cls, values, text):
    record = cls(**values)
    name = next(iter(values))
    with pytest.raises(AttributeError):
        setattr(record, name, 0)
    with pytest.raises(AttributeError):
        record.no_such_field = 0
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) == values[name]


@pytest.mark.parametrize("cls, values, text", RESULTS, ids=IDS[1:])
def test_result_records_are_strict_about_their_class(cls, values, text):
    record = cls(**values)
    assert record != tuple(values.values())
    assert record != dict(values)
    for other_cls, other_values, _ in RECORDS:
        if other_cls is not cls:
            assert record != other_cls(**other_values)
    subclass = type("Sub", (cls,), {})
    assert record != subclass(**values)


@pytest.mark.parametrize("cls, values, text", RESULTS, ids=IDS[1:])
def test_vars_gives_the_fields_in_order(cls, values, text):
    assert vars(cls(**values)) == values
    assert list(vars(cls(**values))) == list(values)


def test_a_fit_can_be_rebuilt_from_vars():
    fit = fit_recurrence(FIB, 2, 1, 10, 28)
    assert fit.status == "refuted"
    assert RecurrenceFit(**vars(fit)) == fit


def test_lucas_params_is_a_named_tuple():
    # The one change from a frozen dataclass: (s, t) is a plain tuple too.
    params = LucasParams(1, 2)
    assert params == (1, 2) and hash(params) == hash((1, 2))
    s, t = params
    assert (s, t) == (params.s, params.t) == (1, 2)
