"""Differential gates for the don't-care class stream of the unbudgeted exhaustive scan.

A subset is don't-care when its one-smaller subsets are not all
monochromatic with one common diagram. ``enumerate_special_systems`` with
``first_only=True`` yields one system per class of systems that differ only
at such subsets, and ``_scan`` reads AP and its certificates off those
representatives. Both are compared here with the complete stream of
``enumerate_special_systems``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from chroma.amalgamation import (
    _scan,
    enumerate_special_systems,
    spectra_scan,
    validate_system,
)
from chroma.diagrams import DiagramSet, Language
from chroma.structures import monochromatic_table
from conftest import A, B, C, D, t1_set
from test_scan_differential import random_family

# The splitting tree over two symbols at every arity: its size-2 AP
# refutation is an identified class whose sides are recolored apart.
SPLIT = DiagramSet.of(
    Language.of({1: 2, 2: 2}, repeat=True), [(), (A,), (B,), (A, C), (A, D), (B, C), (B, D)]
)
# The reference tree less its arity-3 member: refuted from size 1, and its
# don't-care subsets of arity 3 have one symbol only, so they cannot be
# recolored.
T1_SHORT = DiagramSet.of(Language.of({1: 2, 2: 2, 3: 1}), [(), (A,), (B,), (A, C), (A, D)])
FIXED = (t1_set(), SPLIT, T1_SHORT)


def side_key(c) -> tuple:
    """A side's monochromatic table and the colors of its care subsets, by canonical position."""
    return tuple((diag, None if diag is None else c.colors[s]) for s, diag in monochromatic_table(c).items())


def class_key(sys) -> frozenset:
    """The class of a system; unordered, as the stream holds each unordered pair once."""
    return frozenset((side_key(sys.c1), side_key(sys.c2)))


def check_class_stream(ds, lam) -> int:
    """Valid systems, exactly the canonical-first one of each class; returns the systems pruned."""
    classes = list(enumerate_special_systems(lam, ds, first_only=True))
    for sys in classes:
        validate_system(sys, ds)
    firsts: dict = {}
    systems = list(enumerate_special_systems(lam, ds))
    for sys in systems:
        firsts.setdefault(class_key(sys), sys)
    assert classes == list(firsts.values())
    return len(systems) - len(classes)


def unpruned_scan(ds, lam_max):
    return {lam: _scan(enumerate_special_systems(lam, ds), "yes", ds, None) for lam in range(lam_max + 1)}


class TestClassStream:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_random_families(self, seed):
        ds = random_family(seed)
        for lam in (0, 1, 2):
            check_class_stream(ds, lam)

    def test_fixed_families(self):
        assert sum(check_class_stream(ds, lam) for ds in FIXED for lam in (0, 1, 2)) > 0


class TestClassScan:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_random_families_match_the_unpruned_fold(self, seed):
        ds = random_family(seed)
        assert spectra_scan(ds, 2) == unpruned_scan(ds, 2)

    def test_fixed_families_match_the_unpruned_fold(self):
        recolored = 0
        for ds in FIXED:
            table = spectra_scan(ds, 2)
            assert table == unpruned_scan(ds, 2)
            for entry in table.values():
                cert = entry.ap_certificate
                recolored += cert is not None and side_key(cert.c1) == side_key(cert.c2)
        # At least one AP certificate is an identified class recolored apart.
        assert recolored > 0

    def test_single_symbol_dont_cares_cannot_be_recolored(self):
        table = spectra_scan(T1_SHORT, 2)
        assert table == unpruned_scan(T1_SHORT, 2)
        assert [(e.dap, e.ap) for e in table.values()] == [("no", "yes"), ("no", "no"), ("no", "no")]
