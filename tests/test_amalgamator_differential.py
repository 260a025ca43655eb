"""Differential gate for the constructive amalgamator's one-pass reading of its tree.

``check_amalgamator_hypotheses``, case 2 and the case-3 anchor of
``dap_from_ap`` derive their tree facts from one pass over the members. The
reference below reads the tree level by level instead, as ``dap_from_ap``
once did, and must give the same errors, cases, witnesses and node counts.
"""

import random
from itertools import combinations

import pytest

from chroma.amalgamation import (
    AmalgamResult,
    HypothesesError,
    SpecialSystem,
    _agreement_holds,
    _case3_anchor,
    _joint_witness,
    _point_extensions,
    _require_member,
    _system_universe,
    ap_search,
    check_amalgamator_hypotheses,
    dap_from_ap,
    enumerate_special_systems,
    validate_system,
)
from chroma._record import replace
from chroma.diagrams import DiagramSet, Language, RelSymbol
from chroma.structures import ColoringStructure, monochromatic_table
from conftest import A, C, D, E, split_everywhere, tree_with_level1_ranks
from test_amalgamation import coloring
from test_scan_differential import random_family


def depth(ds: DiagramSet) -> int:
    return max(len(m) for m in ds.members)


def reference_split_levels(ds, w):
    """Levels carrying two extensions of w that disagree on their last symbol."""
    levels = []
    for n in range(len(w) + 1, depth(ds) + 1):
        tops = {u[-1] for u in ds.level(n) if u[: len(w)] == w}
        if len(tops) > 1:
            levels.append(n)
    return levels


def reference_check(ds, base_size):
    for k in range(2, 2 * base_size + 5):
        if ds.language.count(k) < 2:
            raise HypothesesError(f"need at least two symbols of arity {k}")
    for w in sorted(ds.level(1)):
        if reference_split_levels(ds, w) == []:
            raise HypothesesError(f"no splitting extensions above {w}")


def reference_case3_anchor(sys, ds, mono):
    point_diagram = (sys.c1.colors[(sys.a1,)],)
    through_point = {}
    for subset, diag in sorted(mono.items()):
        if diag is not None and sys.a1 in subset and diag not in through_point:
            through_point[diag] = tuple(p for p in subset if p != sys.a1)
    for n in range(2, depth(ds) + 1):
        level = sorted(u for u in ds.level(n) if u[:1] == point_diagram)
        for w1, w2 in combinations(level, 2):
            if w1[-1] == w2[-1]:
                continue
            if w1 in through_point and w2 in through_point:
                return n, w1, w2, through_point[w1], through_point[w2]
    return None


def reference_case3_recolor_arity(language, n, base_size):
    for k in range(2 * n, base_size + 2):
        if language.count(k) > 1:
            return k
    return None


def reference_dap_from_ap(sys, ds, ap_oracle):
    validate_system(sys, ds)
    reference_check(ds, len(sys.x))
    if not _agreement_holds(sys):
        result = ap_oracle(sys, ds)
        return replace(result, method="case1") if result.status == "witness" else result
    point_diagram = (sys.c1.colors[(sys.a1,)],)
    mono = monochromatic_table(sys.c1)
    realized = {}
    for subset, diag in mono.items():
        if diag is not None:
            realized.setdefault(len(subset), set()).add(diag)
    for k in range(2, depth(ds) + 1):
        options = sorted(
            u for u in ds.level(k) if u[:1] == point_diagram and u not in realized.get(k, set())
        )
        if options:
            w = options[0]
            return _joint_witness(
                sys, ds, "case2",
                lambda c: w[len(c) + 1] if len(c) <= k - 2 else RelSymbol(len(c) + 2, 0),
            )
    anchor = reference_case3_anchor(sys, ds, mono)
    if anchor is None:
        raise HypothesesError("every extension is realized but none by sets through the fresh point")
    n, _, _, b1, b2 = anchor
    k = reference_case3_recolor_arity(ds.language, n, len(sys.x))
    if k is None:
        raise HypothesesError(f"no arity above {2 * n - 1} fits inside a base of size {len(sys.x)}")
    core = tuple(sorted({sys.a1, *b1, *b2}))
    fillers = [p for p in sorted(sys.x) if p not in core]
    target = tuple(sorted(core + tuple(fillers[: k - len(core)])))
    if len(target) != k:
        raise HypothesesError(f"cannot assemble a {k}-element recoloring set around the realizations")
    old_color = sys.c1.colors[target]
    recolored = dict(sys.c1.colors)
    recolored[target] = next(s for s in ds.language.symbols(k) if s != old_color)
    c1_prime = ColoringStructure(sys.c1.universe, recolored)
    result = ap_oracle(SpecialSystem(sys.x, sys.a1, sys.a2, c1_prime, sys.c2), ds)
    if result.status != "witness":
        return result
    final_colors = dict(result.witness.colors)
    final_colors[target] = old_color
    witness = ColoringStructure(_system_universe(sys), final_colors)
    _require_member(witness, ds, "case 3 amalgam")
    return AmalgamResult("witness", "case3", witness=witness)


def outcome(run, *args):
    """A call's result, or the text of the HypothesesError it raises."""
    try:
        return run(*args)
    except HypothesesError as e:
        return f"HypothesesError: {e}"


def repeating_family(seed: int) -> DiagramSet:
    """A random tree over two symbols per arity, sometimes one at a low arity.

    Every other tree is split so that the amalgamator's hypotheses can hold.
    """
    rng = random.Random(seed)
    counts = {n: 2 for n in range(1, 5)}
    if seed % 5 == 0:
        counts[rng.randint(2, 4)] = 1
    language = Language.of(counts, repeat=True)
    members = {()}
    for _ in range(rng.randint(1, 14)):
        w = rng.choice(sorted(m for m in members if len(m) < 4))
        members.add(w + (rng.choice(language.symbols(len(w) + 1)),))
    ds = DiagramSet.of(language, members)
    return split_everywhere(ds) if seed % 2 else ds


def criterion7_family(rng: random.Random) -> DiagramSet:
    return split_everywhere(tree_with_level1_ranks([3, rng.randint(3, 4)], rng))


CASE3_FAMILY = DiagramSet.of(
    Language.of({1: 2, 2: 2}, repeat=True), [(), (A,), (A, C), (A, D), (A, C, E)]
)


def case3_system() -> SpecialSystem:
    """A size-4 system of ``CASE3_FAMILY`` whose amalgam recolors one set."""
    base = {
        (0, 1): D, (0, 2): D, (0, 3): D,
        (1, 2): C, (1, 3): C, (2, 3): C,
        (1, 2, 3): E,
    }
    c1 = coloring(range(5), {**{(i,): A for i in range(5)}, **base,
                             (0, 4): C, (1, 4): D, (2, 4): D, (3, 4): D})
    c2 = coloring([0, 1, 2, 3, 5], {**{(i,): A for i in (0, 1, 2, 3, 5)}, **base,
                                    (0, 5): C, (1, 5): D, (2, 5): D, (3, 5): D})
    return SpecialSystem((0, 1, 2, 3), 4, 5, c1, c2)


def corpus():
    """Families with the special systems fed to the amalgamator: all of size at most 2.

    A case-3 amalgam recolors a set of at least four points inside the base,
    so the hand-built size-4 system is added to reach one.
    """
    rng = random.Random(1007)
    families = [repeating_family(seed) for seed in range(30)]
    families += [random_family(seed) for seed in range(6)]
    families += [criterion7_family(rng) for _ in range(3)]
    families.append(CASE3_FAMILY)
    for ds in families:
        for lam in (0, 1, 2):
            yield ds, enumerate_special_systems(lam, ds)
    yield CASE3_FAMILY, [case3_system()]


def reached(outcomes, *labels) -> bool:
    """Whether some outcome is a result of each case, or an error text, starting with a label."""
    texts = {o if isinstance(o, str) else o.method for o in outcomes}
    return all(any(t.startswith(label) for t in texts) for label in labels)


@pytest.mark.parametrize("base_size", [0, 1, 2, 4])
def test_hypotheses_match_the_per_level_reading(base_size):
    rng = random.Random(base_size)
    families = [repeating_family(seed) for seed in range(60)]
    families += [random_family(seed) for seed in range(20)]
    families += [criterion7_family(rng) for _ in range(5)] + [CASE3_FAMILY]
    for ds in families:
        assert outcome(check_amalgamator_hypotheses, ds, base_size) == outcome(
            reference_check, ds, base_size
        )


def test_dap_from_ap_matches_the_per_level_reading():
    outcomes = []
    for ds, systems in corpus():
        for sys in systems:
            got = outcome(dap_from_ap, sys, ds)
            assert got == outcome(reference_dap_from_ap, sys, ds, ap_search)
            outcomes.append(got)
            if _agreement_holds(sys):
                mono = monochromatic_table(sys.c1)
                want = reference_case3_anchor(sys, ds, mono)
                anchor = _case3_anchor(sys, _point_extensions(sys, ds), mono)
                assert anchor == (None if want is None else (want[0], *want[3:]))
    assert reached(
        outcomes,
        "case1",
        "case2",
        "case3",
        "HypothesesError: need at least two symbols",
        "HypothesesError: no splitting extensions above",
        "HypothesesError: every extension is realized",
        "HypothesesError: no arity above",
    )
