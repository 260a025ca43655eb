"""The closed-form-rank family: membership, truncations, the rank law."""

import pytest

from chroma.diagrams import DiagramSet, validate
from chroma.ordinal import OMEGA, Ordinal
from chroma.rank import er_rank, rank_table
from chroma.walpha import (
    ClaimMismatch,
    WAlphaParams,
    WAlphaSymbol,
    closed_form_rank,
    is_allowed,
    truncate,
    truncation_symbol_index,
    verify_claim,
)


def sym(arity, gamma, index):
    return WAlphaSymbol(arity, gamma, Ordinal.of(index))


class TestIsAllowed:
    def test_descending_chain(self):
        params = WAlphaParams(Ordinal.from_int(3))
        w = (sym(1, 0, 3), sym(2, 0, 2), sym(3, 1, 0))
        assert is_allowed(params, w)

    def test_strictness(self):
        params = WAlphaParams(Ordinal.from_int(3))
        w = (sym(1, 0, 3), sym(2, 0, 1), sym(3, 0, 1))
        assert not is_allowed(params, w)

    def test_empty(self):
        assert is_allowed(WAlphaParams(Ordinal.from_int(1)), ())

    def test_head_is_pinned(self):
        params = WAlphaParams(Ordinal.from_int(3))
        assert not is_allowed(params, (sym(1, 0, 2),))

    def test_arity_discipline_raises(self):
        params = WAlphaParams(Ordinal.from_int(3))
        with pytest.raises(ValueError):
            is_allowed(params, (sym(2, 0, 3),))

    def test_transfinite_indices(self):
        params = WAlphaParams(OMEGA + 1)
        w = (sym(1, 0, OMEGA + 1), sym(2, 0, OMEGA), sym(3, 0, 4))
        assert is_allowed(params, w)


class TestClosedFormRank:
    def test_leaf_case(self):
        params = WAlphaParams(Ordinal.from_int(3))
        w = (sym(1, 0, 3), sym(2, 0, 2), sym(3, 1, 0))
        assert closed_form_rank(params, w) == Ordinal.from_int(0)

    def test_midrange(self):
        params = WAlphaParams(OMEGA + 1)
        w = (sym(1, 0, OMEGA + 1), sym(2, 0, OMEGA))
        assert closed_form_rank(params, w) == OMEGA

    def test_head_carries_the_top_index(self):
        params = WAlphaParams(Ordinal.from_int(5))
        assert closed_form_rank(params, (sym(1, 1, 5),)) == Ordinal.from_int(5)

    def test_rejects_disallowed(self):
        params = WAlphaParams(Ordinal.from_int(3))
        with pytest.raises(ValueError):
            closed_form_rank(params, (sym(1, 0, 2),))


class TestTruncate:
    def test_reference_fragment(self):
        params = WAlphaParams(Ordinal.from_int(2))
        ds = truncate(params, [0, 1, 2], max_arity=3, max_gamma=1)
        assert validate(ds).ok
        ranks = rank_table(ds)
        assert ranks[()] == 3
        for w in ds.sorted_members:
            if w:
                index = truncation_symbol_index(params, [0, 1, 2], 1, w[-1])
                below = sum(1 for x in (0, 1, 2) if Ordinal.of(x) < index)
                assert ranks[w] == below

    def test_zero_only_keeps_heads_shallow(self):
        params = WAlphaParams(Ordinal.from_int(1))
        ds = truncate(params, [0], max_arity=4, max_gamma=2)
        assert validate(ds).ok
        ranks = rank_table(ds)
        for w in ds.members:
            if len(w) >= 2:
                assert not ds.children(w)
                assert truncation_symbol_index(params, [0], 2, w[-1]) == Ordinal.from_int(0)
        assert ranks[()] == 2

    def test_arity_cap_clips_the_rank(self):
        params = WAlphaParams(Ordinal.from_int(2))
        ds = truncate(params, [0, 1], max_arity=2, max_gamma=1)
        assert rank_table(ds)[()] == 2

    def test_indices_above_alpha_rejected(self):
        with pytest.raises(ValueError):
            truncate(WAlphaParams(Ordinal.from_int(1)), [0, 2], max_arity=3)

    def test_empty_index_set_rejected(self):
        with pytest.raises(ValueError):
            truncate(WAlphaParams(Ordinal.from_int(1)), [], max_arity=3)

    def test_gamma_widens_but_does_not_deepen(self):
        params = WAlphaParams(Ordinal.from_int(2))
        narrow = truncate(params, [0, 1, 2], max_arity=4, max_gamma=1)
        wide = truncate(params, [0, 1, 2], max_arity=4, max_gamma=2)
        assert rank_table(narrow)[()] == rank_table(wide)[()]
        assert len(wide.members) > len(narrow.members)


class TestVerifyClaim:
    def test_reference_pass(self):
        report = verify_claim(WAlphaParams(Ordinal.from_int(2)), [0, 1, 2], 3, 1)
        assert report.ok and report.checked == 4

    def test_corruption_detected(self):
        params = WAlphaParams(Ordinal.from_int(2))
        ds = truncate(params, [0, 1, 2], max_arity=3, max_gamma=1)
        deepest = max(ds.sorted_members, key=len)
        corrupted = DiagramSet.of(ds.language, ds.members - {deepest})
        report = verify_claim(params, [0, 1, 2], 3, 1, diagram_set=corrupted)
        assert not report.ok
        assert report.mismatches

    def test_mismatches_match_a_canonical_walk(self):
        params = WAlphaParams(Ordinal.from_int(4))
        f = [Ordinal.from_int(i) for i in range(4)]
        ds = truncate(params, f, max_arity=5, max_gamma=2)
        # Dropping the rank-0 leaves below the first head lowers ranks at every depth above them.
        leaves = {w for w in ds.members if len(w) >= 3 and w[0].id == 0 and w[-1].id // 2 == 0}
        corrupted = DiagramSet.of(ds.language, ds.members - leaves)
        report = verify_claim(params, f, 5, 2, diagram_set=corrupted)
        ranks = rank_table(corrupted)
        expected = []
        for w in corrupted.sorted_members[1:]:
            index = truncation_symbol_index(params, f, 2, w[-1])
            law = min(sum(1 for x in f if x < index), 5 - len(w))
            if ranks[w] != law:
                expected.append(ClaimMismatch(w, law, ranks[w]))
        assert len({len(m.diagram) for m in expected}) >= 3
        assert report.mismatches == tuple(expected)
        assert report.checked == len(corrupted.members) - 1

    def test_non_initial_segment(self):
        params = WAlphaParams(Ordinal.from_int(5))
        report = verify_claim(params, [0, 2, 5], 4, 2)
        assert report.ok
        ds = truncate(params, [0, 2, 5], 4, 2)
        head = (ds.sorted_members[1])
        assert len(head) == 1
        assert er_rank(ds, head) == 2

    def test_transfinite_top_index(self):
        params = WAlphaParams(OMEGA)
        report = verify_claim(params, [0, 1, 2], 4, 2)
        assert report.ok

    def test_truncation_head_ranks_guarantee_amalgamation(self):
        """Head rank b+1 in a truncation gives disjoint amalgams through base size b."""
        from chroma.amalgamation import dap_search, enumerate_special_systems

        params = WAlphaParams(Ordinal.from_int(2))
        ds = truncate(params, [0, 1], max_arity=3, max_gamma=2)
        ranks = rank_table(ds)
        assert min(ranks[w] for w in ds.level(1)) == 2
        for lam in (0, 1):
            for sys in enumerate_special_systems(lam, ds):
                assert dap_search(sys, ds).status == "witness"

    def test_all_small_combinations(self):
        """Capped fragments still satisfy the clipped rank law everywhere."""
        from itertools import combinations

        pool = list(range(7))
        for size in (1, 2, 3):
            for f in combinations(pool, size):
                for max_arity in (1, 3):
                    top = max(max(f), 1)
                    for alpha in {top, top + 1}:
                        report = verify_claim(
                            WAlphaParams(Ordinal.from_int(alpha)), list(f), max_arity, 1
                        )
                        assert report.ok, (f, max_arity, alpha, report.mismatches[:3])
