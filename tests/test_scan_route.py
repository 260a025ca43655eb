"""The exhaustive scan draws its systems from the public enumerator.

An unbudgeted exhaustive scan asks ``enumerate_special_systems`` for one
system per don't-care class, a budgeted one for every system, and a sampled
scan never asks it; so a tracer wrapping the public name counts the
systems every exhaustive scan works on.
"""

import inspect

import pytest

from chroma import amalgamation
from chroma.amalgamation import spectra_scan
from conftest import t1_set

LAM_MAX = 2


@pytest.fixture
def calls(monkeypatch):
    """The (size, first_only) of each call to ``enumerate_special_systems``."""
    original = amalgamation.enumerate_special_systems
    signature = inspect.signature(original)
    seen = []

    def spy(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        seen.append((bound.arguments["size"], bound.arguments["first_only"]))
        return original(*args, **kwargs)

    monkeypatch.setattr(amalgamation, "enumerate_special_systems", spy)
    return seen


def test_unbudgeted_exhaustive_scan_asks_for_class_representatives(calls):
    spectra_scan(t1_set(), LAM_MAX)
    assert calls == [(lam, True) for lam in range(LAM_MAX + 1)]


def test_budgeted_exhaustive_scan_asks_for_every_system(calls):
    spectra_scan(t1_set(), LAM_MAX, budget=10_000)
    assert calls == [(lam, False) for lam in range(LAM_MAX + 1)]


def test_sampled_scan_never_enumerates(calls):
    spectra_scan(t1_set(), LAM_MAX, mode="sampled", trials=5)
    assert calls == []
