"""The record base behind the library's records: construction, frozenness,
eq, hash and repr, checked against the standard library's frozen dataclass
with the same fields.  Every record is frozen and compares all its fields."""

import dataclasses

import pytest

from hodgecharts._record import FrozenRecordError, Record
from hodgecharts.cones import FarkasAlternative, FarkasSplit, KIndexMap
from hodgecharts.ncd import WeightComplexes
from hodgecharts.siegel import SiegelSolution


@dataclasses.dataclass(frozen=True)
class Split:
    support: tuple
    witness: tuple
    cowitness: tuple


def test_positional_and_keyword_construction():
    a = FarkasSplit((1,), (1, 0), (0, 1))
    b = FarkasSplit((1,), cowitness=(0, 1), witness=(1, 0))
    c = FarkasSplit(support=(1,), witness=(1, 0), cowitness=(0, 1))
    assert a == b == c
    assert (a.support, a.witness, a.cowitness) == ((1,), (1, 0), (0, 1))
    assert FarkasAlternative(solution=None, certificate=(1,)).certificate == (1,)


def test_defaults_fill_missing_fields():
    s = SiegelSolution("minimal", 0.5)
    assert (s.d, s.beta, s.b) == (None, None, None)
    assert SiegelSolution("minimal", 0.5, beta=2.0).beta == 2.0


@pytest.mark.parametrize(
    "args, kwargs",
    [
        (((1,), (1, 0)), {}),  # missing cowitness
        (((1,), (1, 0), (0, 1), ()), {}),  # one positional too many
        (((1,), (1, 0), (0, 1)), {"extra": 1}),  # unknown field
        (((1,), (1, 0), (0, 1)), {"support": (2,)}),  # given twice
        ((), {"support": (1,), "witness": (1, 0)}),  # missing cowitness, by keyword
    ],
    ids=["missing", "too-many", "unknown", "repeated", "missing-keyword"],
)
def test_bad_arguments_raise_type_error(args, kwargs):
    with pytest.raises(TypeError):
        FarkasSplit(*args, **kwargs)
    with pytest.raises(TypeError):  # the dataclass agrees
        Split(*args, **kwargs)


def test_frozen_assignment_and_deletion_raise():
    a = FarkasSplit((1,), (1, 0), (0, 1))
    for mutate in (
        lambda: setattr(a, "support", (2,)),
        lambda: setattr(a, "new_name", 1),
        lambda: delattr(a, "support"),
    ):
        with pytest.raises(FrozenRecordError) as info:
            mutate()
        assert isinstance(info.value, AttributeError)
    assert a.support == (1,)


def test_eq_hash_and_repr_match_the_dataclass():
    a, b = FarkasSplit((1,), (1, 0), (0, 1)), FarkasSplit((1,), (1, 0), (0, 1))
    d = Split((1,), (1, 0), (0, 1))
    assert a == b and not a != b and hash(a) == hash(b) == hash(d)
    assert a != FarkasSplit((2,), (1, 0), (0, 1))
    assert repr(a) == repr(d).replace("Split(", "FarkasSplit(", 1)
    assert len({a, b}) == 1


def test_records_of_different_classes_never_compare_equal():
    class One(Record):
        x: int

    class Other(Record):
        x: int

    assert One(1) != Other(1) and not One(1) == Other(1)
    assert One(1) != (1,) and One(1).__eq__((1,)) is NotImplemented
    assert FarkasSplit((1,), (1, 0), (0, 1)) != Split((1,), (1, 0), (0, 1))


def test_k_index_map_compares_and_shows_splits():
    a = KIndexMap({(): ()}, ((),), {(): "one split"})
    b = KIndexMap({(): ()}, ((),), {(): "another"})
    assert a != b and a == KIndexMap({(): ()}, ((),), {(): "one split"})
    assert "splits={(): 'one split'}" in repr(a)
    with pytest.raises(TypeError):  # splits is required
        KIndexMap({}, ())


def test_weight_complexes_hold_six_matrices():
    """The even Gysin pair is (r2^T, r1^T), so only the restrictions are held."""
    assert WeightComplexes._fields == ("r1", "r2", "g_mid", "r_mid", "g_odd", "r_odd")
    fields = [f"m{i}" for i in range(6)]
    a = WeightComplexes(*fields)
    for mutate in (lambda: setattr(a, "r1", "changed"), lambda: delattr(a, "r1")):
        with pytest.raises(FrozenRecordError):
            mutate()
    assert a.r1 == "m0" and a.r_odd == "m5"
    with pytest.raises(TypeError):
        WeightComplexes(*fields, "m6")


def test_records_holding_dicts_are_unhashable():
    """hash of a record hashes its fields, and a dict field refuses."""
    with pytest.raises(TypeError):
        hash(KIndexMap({(): ()}, ((),), {}))


def test_records_take_no_class_options():
    """Every record is frozen: the base accepts no frozen=False."""
    with pytest.raises(TypeError):

        class Loose(Record, frozen=False):
            x: int
