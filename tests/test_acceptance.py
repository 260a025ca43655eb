"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete. Every tolerance is pinned here; the random corpora
are seeded, so reruns are bit-identical.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from itertools import combinations

from chroma.amalgamation import (
    CompletionSearch,
    amalgamate_infinite,
    ap_search,
    dap_from_ap,
    dap_search,
    enumerate_special_systems,
    sample_special_system,
    spectra_scan,
)
from chroma.constructions import IntervalBlock, build_interval_splitting, build_k_splitting, build_pair_splitting
from chroma.diagrams import DiagramSet, Language, RelSymbol, prune, quotient
from chroma.ordinal import Ordinal
from chroma.rank import InfiniteDiagram, rank_table, rank_witness_chain
from chroma.structures import (
    ColoringStructure,
    extend_triple,
    in_class,
    is_substructure,
    monochromatic_model,
    monochromatic_table,
    restrict,
)
from chroma.walpha import WAlphaParams, verify_claim
from conftest import (
    A,
    B,
    C,
    D,
    E,
    T1_LANGUAGE,
    brute_system_unsat,
    grow_exact_rank,
    naive_rank,
    random_prefix_tree,
    split_everywhere,
    t1_set,
    tree_with_level1_ranks,
)


@contextmanager
def criterion(number: int, description: str):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] FAIL  {description}")
        raise
    elapsed = time.monotonic() - started
    print(f"[criterion {number:2d}] PASS  {description}  ({elapsed:.2f}s)")


_CORPUS: list[DiagramSet] | None = None


def corpus() -> list[DiagramSet]:
    global _CORPUS
    if _CORPUS is None:
        rng = random.Random(1001)
        _CORPUS = [random_prefix_tree(rng, max_nodes=60, max_arity=5) for _ in range(200)]
    return _CORPUS


def test_criterion_1_rank_oracle_agreement():
    with criterion(1, "exact ranks match the naive recursive oracle on 200 trees"):
        started = time.monotonic()
        for ds in corpus():
            table = rank_table(ds)
            for w in ds.members:
                assert table[w] == naive_rank(ds.members, w)
        assert time.monotonic() - started < 5.0


def test_criterion_2_prune_invariance():
    with criterion(2, "pruning to a prefix never changes ranks above it"):
        for ds in corpus():
            table = rank_table(ds)
            for u in ds.members:
                pruned = prune(ds, [u])
                pruned_table = rank_table(pruned)
                for w in pruned.members:
                    if len(w) >= len(u) and w[: len(u)] == u:
                        assert pruned_table[w] == table[w]


def test_criterion_3_quotient_monotonicity():
    with criterion(3, "quotient images never lose rank"):
        for ds in corpus():
            table = rank_table(ds)
            for stem in ds.members:
                if not stem:
                    continue
                _, q = quotient(ds, stem)
                q_table = rank_table(q)
                for w in ds.members:
                    if len(w) >= len(stem) and w[: len(stem)] == stem:
                        image = tuple(
                            RelSymbol(s.arity - len(stem), s.id) for s in w[len(stem):]
                        )
                        assert q_table[image] >= table[w]


def test_criterion_4_closed_form_rank_law():
    with criterion(4, "the closed-form rank law holds on every capped fragment"):
        started = time.monotonic()
        pool = list(range(7))
        checked = 0
        for size in (1, 2, 3, 4):
            for f in combinations(pool, size):
                for max_arity in (1, 2, 3, 4, 5):
                    for max_gamma in (1, 2):
                        tops = {max(max(f), 1), max(f) + 1}
                        for alpha in sorted(tops):
                            report = verify_claim(
                                WAlphaParams(Ordinal.from_int(alpha)),
                                list(f),
                                max_arity,
                                max_gamma,
                            )
                            assert report.ok, (f, max_arity, max_gamma, alpha)
                            checked += 1
        assert checked == 1950
        assert time.monotonic() - started < 30.0


def test_criterion_5_rank_bounds_model_size():
    with criterion(5, "witness-chain classes peak at exactly the root rank"):
        language = Language.of({1: 2, 2: 2, 3: 2, 4: 2, 5: 2, 6: 2})
        rng = random.Random(1005)
        for alpha in range(5):
            for _ in range(3):
                members: set = {()}
                grow_exact_rank(members, (), alpha, language, rng)
                ds = DiagramSet.of(language, members)
                assert rank_table(ds)[()] == alpha
                chain = rank_witness_chain(ds, alpha)
                pruned = prune(ds, [chain[-1]])
                if alpha > 0:
                    witness = monochromatic_model(chain[-1], alpha)
                    assert in_class(witness, pruned).ok
                for size in range(1, 7):
                    search = CompletionSearch(
                        tuple(range(size)), {}, language, pruned
                    )
                    solution = search.first_solution()
                    if size <= alpha:
                        assert solution is not None, (alpha, size)
                    else:
                        assert solution is None, (alpha, size)


def _min_head_rank_trees(beta: int, count: int, rng: random.Random) -> list[DiagramSet]:
    trees = []
    for _ in range(count):
        second = rng.randint(beta + 1, beta + 2)
        trees.append(tree_with_level1_ranks([beta + 1, second], rng))
    return trees


def test_criterion_6_high_ranks_guarantee_disjoint_amalgamation():
    with criterion(6, "head rank b+1 forces disjoint amalgamation up to base size b"):
        rng = random.Random(1006)
        cohorts = {beta: _min_head_rank_trees(beta, 13 if beta else 11, rng) for beta in range(4)}
        total = sum(len(v) for v in cohorts.values())
        assert total == 50
        for beta, trees in cohorts.items():
            for ds in trees:
                ranks = rank_table(ds)
                assert min(ranks[w] for w in ds.level(1)) == beta + 1
                for lam in range(0, min(beta, 2) + 1):
                    for sys in enumerate_special_systems(lam, ds):
                        result = dap_search(sys, ds)
                        assert result.status == "witness", (beta, lam)
        sampled = 0
        attempts = 0
        beta3 = cohorts[3]
        while sampled < 500 and attempts < 5000:
            attempts += 1
            ds = beta3[attempts % len(beta3)]
            sys = sample_special_system(3, ds, rng)
            if sys is None:
                continue
            sampled += 1
            assert dap_search(sys, ds).status == "witness"
        assert sampled == 500


def test_criterion_7_amalgamation_equals_disjoint_amalgamation():
    with criterion(7, "exhaustive one-point verdicts agree and the constructive amalgamator lands in class"):
        rng = random.Random(1007)
        for index in range(50):
            ranks = [3, rng.randint(3, 4)]
            ds = split_everywhere(tree_with_level1_ranks(ranks, rng))
            table = rank_table(ds)
            assert min(table[w] for w in ds.level(1)) >= 3
            for lam in (1, 2):
                dap_ok = True
                ap_ok = True
                for sys in enumerate_special_systems(lam, ds):
                    dap_result = dap_search(sys, ds)
                    ap_result = ap_search(sys, ds)
                    dap_ok = dap_ok and dap_result.status == "witness"
                    ap_ok = ap_ok and ap_result.status in ("witness", "identification")
                    if dap_result.status == "witness":
                        built = dap_from_ap(sys, ds)
                        assert built.status == "witness"
                        assert in_class(built.witness, ds).ok
                assert dap_ok == ap_ok


def _deep_branch_family(rng: random.Random):
    language = Language.of({1: 2, 2: 2}, repeat=True)
    members: set = {()}
    branches = {}
    for head_id in (0, 1):
        symbols = [RelSymbol(1, head_id)]
        w = (symbols[0],)
        members.add(w)
        for arity in range(2, 13):
            sym = RelSymbol(arity, rng.randint(0, 1))
            symbols.append(sym)
            w = w + (sym,)
            members.add(w)
        branches[head_id] = symbols
    for _ in range(6):
        prefix = rng.choice([m for m in members if 1 <= len(m) <= 3])
        members.add(prefix + (RelSymbol(len(prefix) + 1, rng.randint(0, 1)),))
    closed = {m[:i] for m in members for i in range(len(m) + 1)}
    return DiagramSet.of(language, closed), branches


def test_criterion_8_direct_constructions_stay_in_class():
    with criterion(8, "infinite-diagram amalgams and triple extensions stay in class"):
        rng = random.Random(1008)
        ds, branches = _deep_branch_family(rng)

        produced = 0
        while produced < 100:
            lam = rng.randint(0, 3)
            sys = sample_special_system(lam, ds, rng)
            if sys is None:
                continue
            left = sys.c1.colors[(sys.a1,)]
            right = sys.c2.colors[(sys.a2,)]
            d = InfiniteDiagram.from_symbols(branches[left.id]) if left == right else None
            result = amalgamate_infinite(sys, ds, d)
            assert result.status == "witness"
            assert in_class(result.witness, ds).ok
            produced += 1

        produced = 0
        while produced < 100:
            size = rng.randint(1, 3)
            base_search = CompletionSearch(tuple(range(size)), {}, ds.language, ds, rng=rng)
            m2_colors = base_search.first_solution()
            if m2_colors is None:
                continue
            m2 = ColoringStructure(tuple(range(size)), m2_colors)
            keep = tuple(sorted(rng.sample(range(size), rng.randint(1, size))))
            m1 = restrict(m2, keep)
            side_universe = tuple(sorted(set(keep) | {10, 11}))
            side_search = CompletionSearch(
                side_universe, dict(m1.colors), ds.language, ds, rng=rng
            )
            side_colors = side_search.first_solution()
            if side_colors is None:
                continue
            m3 = ColoringStructure(side_universe, {**m1.colors, **side_colors})
            d = InfiniteDiagram.from_symbols(branches[rng.randint(0, 1)])
            ext = extend_triple(m1, m2, m3, [20, 21], d, ds)
            for grown in (ext.n1, ext.n2, ext.n3):
                assert in_class(grown, ds).ok
            assert is_substructure(ext.n1, ext.n2)
            assert is_substructure(ext.n1, ext.n3)
            produced += 1


def test_criterion_9_splitting_constructions():
    with criterion(9, "difference-position splittings break monochromaticity as designed"):
        started = time.monotonic()
        for m in range(1, 5):
            pair_diagrams = [(A, RelSymbol(2, i)) for i in range(m)]
            language = Language.of({1: 1, 2: max(2, m)})
            built = build_pair_splitting(m, (A,), pair_diagrams)
            table = monochromatic_table(built)
            for triple in combinations(built.universe, 3):
                assert table[triple] is None

        E1 = RelSymbol(3, 1)
        lang = Language.of({1: 2, 2: 2, 3: 2}, repeat=True)
        deep = DiagramSet.of(
            lang,
            [
                (), (A,), (A, C),
                (A, C, E), (A, C, E1),
                (A, C, E, RelSymbol(4, 0)), (A, C, E1, RelSymbol(4, 1)),
            ],
        )
        for m in (2, 3):
            comp0 = monochromatic_model(
                (RelSymbol(1, 0), RelSymbol(2, 0), RelSymbol(3, 0))[:m], m, tuple(range(m))
            )
            comp1 = monochromatic_model(
                (RelSymbol(1, 0), RelSymbol(2, 1), RelSymbol(3, 1))[:m], m, tuple(range(m))
            )
            built = build_k_splitting(m, (A, C), [comp0, comp1])
            assert in_class(built, prune(deep, [(A, C)])).ok

        interval_target = DiagramSet.of(
            lang,
            [(), (A,), (A, C), (A, D), (A, D, E), (A, D, E1)],
        )
        for m in (2, 3):
            second_len = m - 1
            second_positions = tuple(range(1, m))
            blocks = [
                IntervalBlock(
                    1, (A, C), (A, C),
                    (
                        ColoringStructure((0,), {(0,): RelSymbol(1, 0)}),
                        ColoringStructure((0,), {(0,): RelSymbol(1, 1)}),
                    ),
                ),
                IntervalBlock(
                    second_len, (A, D), (A, D),
                    (
                        monochromatic_model(
                            (RelSymbol(1, 0), RelSymbol(2, 0))[:second_len],
                            second_len, second_positions,
                        ),
                        monochromatic_model(
                            (RelSymbol(1, 1), RelSymbol(2, 1))[:second_len],
                            second_len, second_positions,
                        ),
                    ),
                ),
            ]
            built = build_interval_splitting(m, blocks)
            assert in_class(built, prune(interval_target, [(A,)])).ok
        assert time.monotonic() - started < 60.0


def test_criterion_10_refutation_certificates_are_sound():
    with criterion(10, "every spectra refutation is confirmed by brute enumeration"):
        families = [
            t1_set(),
            DiagramSet.of(T1_LANGUAGE, [(), (A,), (B,), (A, C)]),
            DiagramSet.of(
                Language.of({1: 2, 2: 2}, repeat=True),
                [(), (A,), (B,), (A, C), (A, D), (B, C), (B, D)],
            ),
        ]
        confirmed = 0
        for ds in families:
            table = spectra_scan(ds, 2)
            for lam, entry in table.items():
                for cert in (entry.dap_certificate, entry.ap_certificate):
                    if cert is not None and len(cert.x) <= 2:
                        assert brute_system_unsat(cert, ds), (lam, cert)
                        confirmed += 1
        assert confirmed >= 4
