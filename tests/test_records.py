"""Records behave as the frozen dataclasses they replace.

Each of chroma's value classes is compared with a twin that
``dataclasses.make_dataclass(frozen=True)`` builds from the same class body:
the same annotated fields and defaults, the same base classes, and the
methods the class defines itself. Construction, equality, hashing, repr,
immutability, argument errors, ``__post_init__`` checks and ``replace`` must
all agree.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from chroma import _record
from chroma._record import replace
from chroma.amalgamation import AmalgamResult, RefutationBranch, ScanEntry, SpecialSystem
from chroma.constructions import BinaryStringUniverse, IntervalBlock
from chroma.diagrams import DiagramSet, FullTree, Language, RelSymbol, ValidationReport
from chroma.ordinal import (
    OMEGA,
    ONE,
    ZERO,
    BethCardinal,
    FiniteCardinal,
    KappaCardinal,
    Ordinal,
    PowerSetCardinal,
    SupremumCardinal,
)
from chroma.rank import RankVerdict
from chroma.structures import ColoringStructure, MembershipReport, TripleExtension
from chroma.walpha import ClaimMismatch, ClaimReport, WAlphaParams, WAlphaSymbol

R10, R11, R20, R30 = RelSymbol(1, 0), RelSymbol(1, 1), RelSymbol(2, 0), RelSymbol(3, 0)
LANG = Language(((1, 2), (2, 1)))
C01 = ColoringStructure((0, 1), {(0,): R10, (1,): R11, (0, 1): R20})
C02 = ColoringStructure((0, 2), {(0,): R10, (2,): R10, (0, 2): R20})
SYSTEM = SpecialSystem((0,), 1, 2, C01, C02)
MISMATCH = ClaimMismatch((R10,), 1, 2)

# Per class, argument tuples for the constructor: the first two build
# unequal objects, and shorter tuples leave defaults to fill.
SAMPLES = {
    Ordinal: [(((ZERO, 2),),), (((ONE, 1), (ZERO, 3)),), ()],
    FiniteCardinal: [(3,), (0,)],
    KappaCardinal: [(OMEGA,), (Ordinal.omega_power(1, 2),)],
    BethCardinal: [(OMEGA,), (ONE, FiniteCardinal(2))],
    PowerSetCardinal: [(FiniteCardinal(2),), (BethCardinal(ONE),)],
    SupremumCardinal: [((FiniteCardinal(1), FiniteCardinal(2)),), ((),)],
    Language: [(((1, 2), (2, 1)),), (((1, 1),), True), ((),)],
    DiagramSet: [(LANG, frozenset({(), (R10,)})), (LANG, frozenset({()}))],
    ValidationReport: [(True,), (False, (R10, R30), "arity mismatch"), (False, None)],
    FullTree: [(LANG,), (Language(((1, 1),), True),)],
    RankVerdict: [(3,), (None, 5), ()],
    ColoringStructure: [(C01.universe, C01.colors), (C02.universe, C02.colors), ((), {})],
    MembershipReport: [(True,), (False, (0, 1), (R10, R20)), (False, (0,))],
    TripleExtension: [(C01, C01, C02, (5,)), (C01, C02, C02, ())],
    SpecialSystem: [((0,), 1, 2, C01, C02), ((0,), 1, 2, C01, C01)],
    RefutationBranch: [(R10, (0, 1), (R10, R20)), (R11, (0,), (R11,))],
    AmalgamResult: [
        ("witness", "search"),
        ("unsat", "case1", None, None, (RefutationBranch(R10, (0,), (R10,)),), 7),
        ("identification", "search", None, {"1": 2}),
    ],
    ScanEntry: [("yes", "no"), ("no", "no", SYSTEM, None), ("yes", "yes", None)],
    BinaryStringUniverse: [(3,), (0,)],
    IntervalBlock: [(2, (R10, R20), (R10, R20, R30), (C01,)), (1, (R10, R20), (R10, R20), ())],
    WAlphaSymbol: [(1, 0, ONE), (2, 1, OMEGA)],
    WAlphaParams: [(ONE,), (OMEGA,)],
    ClaimMismatch: [((R10,), 1, 2), ((), 0, 0)],
    ClaimReport: [(True, 4), (False, 4, (MISMATCH,))],
}
CLASSES = list(SAMPLES)


def field_names(cls) -> list[str]:
    return list(cls.__annotations__)


def twin(cls):
    """What ``@dataclass(frozen=True)`` makes of the class body of ``cls``."""
    fields = [
        (name, object, dataclasses.field(default=vars(cls)[name])) if name in vars(cls) else (name, object)
        for name in field_names(cls)
    ]
    own = {
        name: value
        for name, value in vars(cls).items()
        if callable(value) and getattr(value, "__module__", None) == cls.__module__
    }
    return dataclasses.make_dataclass(cls.__name__, fields, bases=cls.__bases__, namespace=own, frozen=True)


TWINS = {cls: twin(cls) for cls in CLASSES}


def outcome(fn):
    """A call's result, or the class of the exception it raised."""
    try:
        return fn()
    except Exception as e:  # the exception class is the outcome compared
        return type(e)


def test_every_record_class_is_covered():
    classes = {
        value
        for module in ("ordinal", "diagrams", "rank", "structures", "amalgamation", "constructions", "walpha")
        for value in vars(sys.modules[f"chroma.{module}"]).values()
        if isinstance(value, type)
        and getattr(vars(value).get("__init__"), "__module__", None) == _record.__name__
    }
    assert classes == set(CLASSES)
    assert len(CLASSES) == 24


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
class TestAgainstFrozenDataclass:
    def pairs(self, cls):
        """(record, twin) instances built from the same arguments."""
        return [(cls(*args), TWINS[cls](*args)) for args in SAMPLES[cls]]

    def test_equality(self, cls):
        pairs = self.pairs(cls)
        for a, ta in pairs:
            for b, tb in pairs:
                assert (a == b) is (ta == tb)
                assert (a != b) is (ta != tb)
        a, ta = pairs[0]
        assert a == cls(*SAMPLES[cls][0]) and a is not cls(*SAMPLES[cls][0])
        assert a != pairs[1][0]
        assert a.__eq__(ta) is NotImplemented and a != ta

    def test_hash(self, cls):
        for a, ta in self.pairs(cls):
            # A field that holds a dict makes the hash a TypeError on both sides.
            assert outcome(lambda: hash(a)) == outcome(lambda: hash(ta))
            if cls is not ColoringStructure:  # it defines its own hash, over sorted colors
                fields = tuple(getattr(a, name) for name in field_names(cls))
                assert outcome(lambda: hash(a)) == outcome(lambda: hash(fields))

    def test_repr(self, cls):
        for a, ta in self.pairs(cls):
            assert repr(a) == repr(ta)

    def test_keywords_and_defaults(self, cls):
        names = field_names(cls)
        for args in SAMPLES[cls]:
            by_keyword = dict(zip(names, args))
            assert cls(**by_keyword) == cls(*args)
            full = tuple(getattr(cls(*args), name) for name in names)
            assert cls(*full) == cls(*args)
            assert full == tuple(getattr(TWINS[cls](*args), name) for name in names)

    def test_frozen(self, cls):
        for obj in (cls(*SAMPLES[cls][0]), TWINS[cls](*SAMPLES[cls][0])):
            for name in (field_names(cls)[0], "not_a_field"):
                with pytest.raises(AttributeError):
                    setattr(obj, name, 1)
                with pytest.raises(AttributeError):
                    delattr(obj, name)
        assert getattr(cls(*SAMPLES[cls][0]), field_names(cls)[0]) == SAMPLES[cls][0][0]

    def test_argument_errors(self, cls):
        names = field_names(cls)
        args = SAMPLES[cls][0]
        full = tuple(getattr(cls(*args), name) for name in names)
        calls = [
            lambda k: k(*full, None),
            lambda k: k(*full, not_a_field=1),
            lambda k: k(*full, **{names[0]: full[0]}),
        ]
        if any(name not in vars(cls) for name in names):
            calls.append(lambda k: k())
        for call in calls:
            assert outcome(lambda: call(cls)) is TypeError
            assert outcome(lambda: call(TWINS[cls])) is TypeError

    def test_replace(self, cls):
        names = field_names(cls)
        a, b = cls(*SAMPLES[cls][0]), cls(*SAMPLES[cls][1])
        ta = TWINS[cls](*SAMPLES[cls][0])
        for name in names:
            changed = replace(a, **{name: getattr(b, name)})
            expected = dataclasses.replace(ta, **{name: getattr(b, name)})
            assert type(changed) is cls
            assert [getattr(changed, n) for n in names] == [getattr(expected, n) for n in names]
        assert replace(a) == a and replace(a) is not a
        assert replace(a, **{n: getattr(b, n) for n in names}) == b
        assert outcome(lambda: replace(a, not_a_field=1)) is TypeError


@pytest.mark.parametrize(
    "cls, args",
    [
        (Ordinal, ((("x", 1),),)),
        (Ordinal, (((ZERO, 0),),)),
        (Ordinal, (((ZERO, 1), (ONE, 1)),)),
        (FiniteCardinal, (-1,)),
        (KappaCardinal, (ONE,)),
        (Language, (((1, 0),),)),
        (Language, (((2, 1),),)),
        (ColoringStructure, ((1, 0), {})),
        (ColoringStructure, ((0, 0), {})),
        (BinaryStringUniverse, (-1,)),
        (WAlphaSymbol, (0, 0, ONE)),
        (WAlphaSymbol, (1, -1, ONE)),
        (WAlphaParams, (ZERO,)),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else "",
)
def test_post_init_errors(cls, args):
    expected = outcome(lambda: TWINS[cls](*args))
    assert expected in (TypeError, ValueError)
    assert outcome(lambda: cls(*args)) is expected
    names = field_names(cls)
    assert outcome(lambda: cls(**dict(zip(names, args)))) is expected
    valid = cls(*SAMPLES[cls][0])
    assert outcome(lambda: replace(valid, **dict(zip(names, args)))) is expected


def test_different_classes_with_equal_fields_differ():
    base = FiniteCardinal(2)
    same_fields = [
        (FiniteCardinal(3), BinaryStringUniverse(3)),
        (PowerSetCardinal(base), SupremumCardinal(base)),
        (KappaCardinal(OMEGA), FullTree(OMEGA)),
        (BethCardinal(OMEGA), RankVerdict(OMEGA)),
    ]
    for a, b in same_fields:
        assert tuple(vars(a).values()) == tuple(vars(b).values())
        assert a != b and not a == b
        assert a.__eq__(b) is NotImplemented
    pool = [cls(*SAMPLES[cls][0]) for cls in CLASSES]
    for i, a in enumerate(pool):
        for j, b in enumerate(pool):
            assert (a == b) is (i == j)


def test_own_methods_are_kept():
    assert repr(Ordinal.from_int(3)) == "Ordinal[3]"
    assert repr(BethCardinal(ONE)) == "BethCardinal(index=Ordinal[1], base=None)"
    colors = dict(C01.colors)
    assert hash(C01) == hash((C01.universe, tuple(sorted(colors.items()))))


def test_cached_property_on_a_record():
    ds = DiagramSet(LANG, frozenset({(), (R11,), (R10,)}))
    assert ds.sorted_members == ((), (R10,), (R11,))
    assert ds.sorted_members is ds.sorted_members


def test_cli_import_loads_no_dataclass_machinery():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import chroma.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == "[]\n"
