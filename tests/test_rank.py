"""Existence ranks: exact values, witness chains, bounds, budgeted exploration."""

import random

import pytest

from chroma.diagrams import DiagramSet, FullTree, Language, RelSymbol, prune, quotient
from chroma.ordinal import OMEGA, FiniteCardinal, Ordinal, beth_expr
from chroma.rank import (
    BranchFamily,
    InfiniteDiagram,
    RankVerdict,
    check_rank_table,
    er_rank,
    has_infinite_rank_surrogate,
    infinite_diagram_consistent,
    max_model_bound,
    rank_table,
    rank_witness_chain,
)
from chroma.walpha import WAlphaParams, truncate
from conftest import A, B, C, E, T1_LANGUAGE, naive_rank, random_prefix_tree


class TestErRank:
    def test_leaf(self, t1):
        assert er_rank(t1, (A, C, E)) == 0

    def test_inner_node(self, t1):
        assert er_rank(t1, (A,)) == 2

    def test_root(self, t1):
        assert er_rank(t1, ()) == 3

    def test_rejects_nonmembers(self, t1):
        with pytest.raises(ValueError):
            er_rank(t1, (B, C))

    def test_matches_naive_oracle_on_random_trees(self):
        rng = random.Random(11)
        for _ in range(30):
            ds = random_prefix_tree(rng, max_nodes=40)
            table = rank_table(ds)
            for w in ds.members:
                assert table[w] == naive_rank(ds.members, w)

    def test_children_strictly_below_parents(self):
        rng = random.Random(12)
        for _ in range(15):
            ds = random_prefix_tree(rng, max_nodes=40)
            table = rank_table(ds)
            for w in ds.members:
                for child in ds.children(w):
                    assert table[child] < table[w]

    def test_rank_zero_means_leaf(self):
        rng = random.Random(13)
        for _ in range(15):
            ds = random_prefix_tree(rng, max_nodes=40)
            table = rank_table(ds)
            for w in ds.members:
                assert (table[w] == 0) == (not ds.children(w))

    def test_table_checker_flags_corruption(self, t1):
        table = rank_table(t1)
        assert check_rank_table(t1, table) == []
        table[(A,)] += 1
        assert (A,) in check_rank_table(t1, table)


class TestWitnessChain:
    def test_unique_maximal_chain(self, t1):
        assert rank_witness_chain(t1, 3) == [(), (A,), (A, C), (A, C, E)]

    def test_zero_length(self, t1):
        assert rank_witness_chain(t1, 0) == [()]

    def test_linear_tree(self):
        ds = DiagramSet.of(T1_LANGUAGE, [(), (A,), (A, C)])
        assert rank_witness_chain(ds, 2) == [(), (A,), (A, C)]

    def test_rejects_overlong_chains(self, t1):
        with pytest.raises(ValueError):
            rank_witness_chain(t1, 4)

    def test_terminal_node_at_level_k_has_rank_zero(self):
        rng = random.Random(14)
        for _ in range(15):
            ds = random_prefix_tree(rng, max_nodes=40)
            k = rank_table(ds)[()]
            chain = rank_witness_chain(ds, k)
            assert len(chain[-1]) == k
            assert er_rank(ds, chain[-1]) == 0


class TestMaxModelBound:
    def test_rank_below_one_gives_language_size(self):
        langsize = FiniteCardinal(5)
        assert max_model_bound((), 1, langsize) is langsize

    def test_three_steps(self):
        langsize = FiniteCardinal(5)
        assert max_model_bound((), 3, langsize) == beth_expr(3, langsize)

    def test_limit_bound_with_stem(self):
        langsize = FiniteCardinal(5)
        bound = max_model_bound((A, C), OMEGA + 1, langsize)
        assert bound == beth_expr(OMEGA + 2, langsize)


class TestInfiniteDiagram:
    def test_arity_discipline_enforced(self):
        d = InfiniteDiagram(lambda n: RelSymbol(1, 0))
        with pytest.raises(ValueError):
            d(2)

    def test_prefix(self):
        d = InfiniteDiagram.from_symbols([A, C, E])
        assert d.prefix(3) == (A, C, E)
        assert d(5) == RelSymbol(5, 0)

    def test_finite_tree_runs_out(self, t1):
        d = InfiniteDiagram.from_symbols([A, C, E])
        assert infinite_diagram_consistent(t1, d, 3)
        assert not infinite_diagram_consistent(t1, d, 4)

    def test_full_tree_accepts_everything(self):
        tree = FullTree(Language.of({1: 1}, repeat=True))
        d = InfiniteDiagram(lambda n: RelSymbol(n, 0))
        assert infinite_diagram_consistent(tree, d, 20)

    def test_walpha_descending_indices_exhaust(self):
        from chroma.walpha import WAlphaFamily, WAlphaSymbol

        params = WAlphaParams(Ordinal.from_int(3))
        family = WAlphaFamily(params)

        def gen(n):
            index = Ordinal.from_int(max(3 - n + 1, 0)) if n > 1 else params.alpha
            return WAlphaSymbol(n, 0, index)

        d = InfiniteDiagram(gen)
        assert infinite_diagram_consistent(family, d, 4)
        assert not infinite_diagram_consistent(family, d, 6)


class TestBudgetedExploration:
    def test_exact_on_finite_tree(self, t1):
        verdict = has_infinite_rank_surrogate(t1, 10)
        assert verdict.exact == 3

    def test_unbounded_tree_hits_budget(self):
        tree = FullTree(Language.of({1: 1}, repeat=True))
        verdict = has_infinite_rank_surrogate(tree, 6)
        assert verdict.exact is None and verdict.at_least == 6
        assert str(verdict) == ">= 6"

    def test_walpha_truncation_exact(self):
        ds = truncate(WAlphaParams(Ordinal.from_int(2)), [0, 1, 2], max_arity=3)
        assert has_infinite_rank_surrogate(ds, 10).exact == 3

    def test_branch_family_is_a_single_chain(self):
        d = InfiniteDiagram(lambda n: RelSymbol(n, 0))
        family = BranchFamily(d)
        verdict = has_infinite_rank_surrogate(family, 5)
        assert verdict.at_least == 5

    def test_budget_must_be_positive(self, t1):
        with pytest.raises(ValueError):
            has_infinite_rank_surrogate(t1, 0)

    def test_agrees_with_exact_ranks_on_random_trees(self):
        rng = random.Random(17)
        for _ in range(25):
            ds = random_prefix_tree(rng, max_nodes=30)
            exact = rank_table(ds)[()]
            generous = has_infinite_rank_surrogate(ds, exact + 3)
            assert generous.exact == exact
            if exact >= 1:
                tight = has_infinite_rank_surrogate(ds, exact)
                assert tight.exact is None and tight.at_least == exact


def recursive_surrogate(tree, budget):
    """The budgeted exploration as one recursive call per node, for reference."""

    def explore(w, cap):
        if cap == 0:
            return RankVerdict(at_least=0)
        kids = tree.children(w)
        if not kids:
            return RankVerdict(exact=0)
        best = 0
        for kid in kids:
            sub = explore(kid, cap - 1)
            if sub.exact is None:
                return RankVerdict(at_least=cap)
            best = max(best, sub.exact)
        return RankVerdict(exact=1 + best)

    return explore((), budget)


class CallLog:
    """A tree that records which nodes were asked for their children."""

    def __init__(self, tree):
        self.tree, self.calls = tree, []

    def children(self, w):
        self.calls.append(w)
        return self.tree.children(w)


class Chain:
    """One branch of the given length, endless without one."""

    def __init__(self, length=None):
        self.length = length

    def children(self, w):
        if self.length is not None and len(w) == self.length:
            return ()
        return (w + (RelSymbol(len(w) + 1, 0),),)


class TestIterativeExploration:
    def test_matches_recursive_walk_on_random_trees(self):
        rng = random.Random(29)
        for _ in range(40):
            ds = random_prefix_tree(rng, max_nodes=40)
            for budget in range(1, rank_table(ds)[()] + 3):
                runs = []
                for explore in (has_infinite_rank_surrogate, recursive_surrogate):
                    tree = CallLog(ds)
                    runs.append((explore(tree, budget), tree.calls))
                assert runs[0] == runs[1]

    def test_endless_chain_deeper_than_the_recursion_limit(self):
        assert has_infinite_rank_surrogate(Chain(), 5000) == RankVerdict(at_least=5000)

    def test_finite_chain_deeper_than_the_recursion_limit(self):
        assert has_infinite_rank_surrogate(Chain(3000), 5000) == RankVerdict(exact=3000)


class TestPruneInvariance:
    def test_on_random_corpus(self):
        rng = random.Random(15)
        for _ in range(20):
            ds = random_prefix_tree(rng, max_nodes=40)
            table = rank_table(ds)
            for u in ds.members:
                pruned = prune(ds, [u])
                pruned_table = rank_table(pruned)
                for w in pruned.members:
                    if len(w) >= len(u):
                        assert pruned_table[w] == table[w]


class TestQuotientMonotonicity:
    def test_on_random_corpus(self):
        rng = random.Random(16)
        for _ in range(20):
            ds = random_prefix_tree(rng, max_nodes=40)
            table = rank_table(ds)
            for stem in ds.members:
                if not stem:
                    continue
                _, q = quotient(ds, stem)
                q_table = rank_table(q)
                for w in ds.members:
                    if len(w) >= len(stem) and w[: len(stem)] == stem:
                        image = tuple(RelSymbol(s.arity - len(stem), s.id) for s in w[len(stem):])
                        assert q_table[image] >= table[w]
