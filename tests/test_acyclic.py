"""Scans and solvers leave no reference cycles behind.

The command line runs with the cyclic collector off, so a cycle made on
every system, for instance between a side, the numbers it keeps and the
family they name, would be garbage that is never freed. On a diagram set
and on a family object that takes no attributes, every scan mode and every
public solver is run with the collector off; once their results are
dropped, a collection must find nothing to free. ``dap_from_ap`` and
``amalgamate_quotient`` read a diagram set's members, so they run on the
diagram set alone.
"""

import gc

import pytest

from chroma.amalgamation import (
    amalgamate_infinite,
    amalgamate_quotient,
    ap_search,
    dap_from_ap,
    dap_search,
    enumerate_special_systems,
    spectra_scan,
)
from chroma.rank import InfiniteDiagram
from chroma.structures import ColoringStructure
from conftest import A, C, E
from test_amalgamation import b_system, case1_system
from test_seeded_search import SlottedFamily


def run_everything(family, ds, sys):
    """Every scan mode on ``family`` and every public solver that takes it, on ``sys`` and more."""
    results = [
        spectra_scan(family, 2),
        spectra_scan(family, 2, budget=40),
        spectra_scan(family, 2, mode="sampled", seed=3, trials=8),
    ]
    systems = [sys, b_system(), *enumerate_special_systems(1, family)]
    for system in systems:
        results += [dap_search(system, family), ap_search(system, family, 5)]
    results.append(amalgamate_infinite(sys, family, InfiniteDiagram.from_symbols([A, C, E])))
    if family is ds:
        results.append(dap_from_ap(sys, ds))
        results.append(amalgamate_quotient(sys, ds, (A, C), ColoringStructure((0,), {(0,): A})))
    return results


@pytest.mark.parametrize("slotted", [False, True])
def test_no_cycles_are_left_for_the_collector(slotted):
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        ds, sys = case1_system()
        family = SlottedFamily(ds) if slotted else ds
        results = run_everything(family, ds, sys)
        assert all(results)
        del ds, sys, family, results
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()
