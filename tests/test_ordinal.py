"""Ordinal arithmetic, fundamental sequences, and symbolic cardinals."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chroma.ordinal import (
    OMEGA,
    ZERO,
    BethCardinal,
    FiniteCardinal,
    KappaCardinal,
    Ordinal,
    PowerSetCardinal,
    beth_expr,
    bound_index,
    compare,
    fundamental_sequence,
    kappa_expr,
    parse_ordinal,
    render_ordinal,
    split,
    sup_expr,
)

W2 = Ordinal.omega_power(2)


@st.composite
def small_ordinals(draw, depth: int = 2):
    if depth == 0:
        return Ordinal.from_int(draw(st.integers(0, 30)))
    pairs = draw(
        st.lists(
            st.tuples(small_ordinals(depth=depth - 1), st.integers(1, 4)),
            max_size=4,
        )
    )
    total = Ordinal.from_int(draw(st.integers(0, 10)))
    for exp, coeff in pairs:
        total = total + Ordinal.omega_power(exp, coeff)
    return total


class TestCompare:
    def test_reflexive_on_zero(self):
        assert compare(ZERO, ZERO) == 0

    def test_every_finite_below_omega(self):
        assert compare(OMEGA, 3) > 0

    def test_successor_exceeds_base(self):
        two_omega = Ordinal.omega_power(1, 2)
        assert compare(two_omega + 1, two_omega) > 0

    @given(small_ordinals(), small_ordinals())
    def test_antisymmetry(self, a, b):
        assert compare(a, b) == -compare(b, a)

    @given(small_ordinals(), small_ordinals(), small_ordinals())
    @settings(max_examples=60)
    def test_transitive(self, a, b, c):
        if compare(a, b) <= 0 and compare(b, c) <= 0:
            assert compare(a, c) <= 0


class TestSplit:
    def test_finite(self):
        assert split(5) == (ZERO, 5)

    def test_cnf_tail(self):
        beta, k = split(OMEGA + 2)
        assert beta == OMEGA and k == 2

    def test_limit(self):
        two_omega = Ordinal.omega_power(1, 2)
        assert split(two_omega) == (two_omega, 0)

    @given(small_ordinals())
    def test_readdition_identity(self, a):
        beta, k = split(a)
        assert beta + k == a
        assert beta.is_zero() or beta.is_limit()


class TestAddition:
    @given(small_ordinals(), small_ordinals(), small_ordinals())
    @settings(max_examples=60)
    def test_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(small_ordinals(), small_ordinals())
    def test_weakly_monotone_left(self, a, b):
        assert a + b >= a


class TestFundamentalSequence:
    def test_omega_is_identity(self):
        assert fundamental_sequence(OMEGA, 4) == Ordinal.from_int(4)

    def test_omega_times_two(self):
        assert fundamental_sequence(Ordinal.omega_power(1, 2), 3) == OMEGA + 3

    def test_omega_squared(self):
        assert fundamental_sequence(W2, 2) == Ordinal.omega_power(1, 2)

    def test_rejects_successors(self):
        with pytest.raises(ValueError):
            fundamental_sequence(OMEGA + 1, 0)

    @pytest.mark.parametrize(
        "beta",
        [
            OMEGA,
            Ordinal.omega_power(1, 2),
            W2,
            Ordinal.omega_power(2, 3),
            W2 + Ordinal.omega_power(1, 1),
            Ordinal.omega_power(OMEGA),
        ],
    )
    def test_strictly_increasing_and_below(self, beta):
        values = [fundamental_sequence(beta, i) for i in range(12)]
        assert all(v < beta for v in values)
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_cofinal_below_omega_squared_times_three(self):
        """Every ordinal below the bound is overtaken at every limit above it."""
        bound = Ordinal.omega_power(2, 3)
        samples = [
            Ordinal.from_int(17),
            OMEGA + 5,
            Ordinal.omega_power(1, 3) + 2,
            W2 + OMEGA + 9,
            W2 + Ordinal.omega_power(1, 4),
            Ordinal.omega_power(2, 2) + Ordinal.omega_power(1, 2) + 1,
        ]
        for gamma in samples:
            assert gamma < bound
            assert any(fundamental_sequence(bound, i) > gamma for i in range(200))


class TestBoundIndex:
    def test_root_with_three_steps(self):
        assert bound_index(0, 0, 3) == Ordinal.from_int(3)

    def test_limit_part(self):
        assert bound_index(OMEGA, 2, 1) == OMEGA + 2

    def test_zero_steps_annihilate(self):
        assert bound_index(0, 1, 0) == ZERO

    def test_rejects_successor_base(self):
        with pytest.raises(ValueError):
            bound_index(OMEGA + 1, 1, 1)


class TestTextForm:
    def test_canonical_example(self):
        a = Ordinal.omega_power(2, 3) + Ordinal.omega_power(1, 1) + 4
        assert render_ordinal(a) == "w^2*3+w*1+4"
        assert parse_ordinal("w^2*3+w*1+4") == a

    def test_zero(self):
        assert render_ordinal(ZERO) == "0"
        assert parse_ordinal("0") == ZERO

    def test_nested_exponent(self):
        a = Ordinal.omega_power(OMEGA, 2) + 5
        assert parse_ordinal(render_ordinal(a)) == a

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_ordinal("w^*3")

    @given(small_ordinals())
    def test_round_trip(self, a):
        assert parse_ordinal(render_ordinal(a)) == a

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty ordinal term"),
            ("w+", "empty ordinal term"),
            (")", "unexpected token ')' in ordinal"),
            ("w^(2", "unbalanced parentheses in ordinal exponent"),
            ("w^", "missing exponent after '^'"),
            ("w*", "missing coefficient after '*'"),
            ("w*w", "missing coefficient after '*'"),
            ("w 2 ^ w", "trailing tokens in ordinal: ['2', '^', 'w']"),
            ("w?", "bad ordinal syntax at position 1: 'w?'"),
        ],
    )
    def test_error_messages(self, text, message):
        with pytest.raises(ValueError) as info:
            parse_ordinal(text)
        assert str(info.value) == message

    def test_long_sums_parse_in_linear_time(self):
        start = time.perf_counter()
        assert parse_ordinal("+".join(["w^2"] * 20_000)) == Ordinal.omega_power(2, 20_000)
        assert time.perf_counter() - start < 5.0

    def test_deep_nesting_is_a_recursion_error(self):
        with pytest.raises(RecursionError):
            parse_ordinal("w^(" * 5_000 + "1" + ")" * 5_000)


class TestCardinalExpr:
    def test_kappa_atom_normalizes_finite(self):
        assert kappa_expr(3) == FiniteCardinal(3)

    def test_kappa_atom_normalizes_high(self):
        assert kappa_expr(W2 + 1) == BethCardinal(W2 + 1)

    def test_kappa_atom_stays_in_window(self):
        assert kappa_expr(OMEGA) == KappaCardinal(OMEGA)
        with pytest.raises(ValueError):
            KappaCardinal(Ordinal.from_int(5))

    def test_beth_zero_collapses_to_base(self):
        base = FiniteCardinal(7)
        assert beth_expr(0, base) is base
        assert beth_expr(2, base) == BethCardinal(Ordinal.from_int(2), base)

    def test_rendering(self):
        expr = PowerSetCardinal(KappaCardinal(OMEGA))
        assert expr.render() == "2^kappa_(w*1)"
        assert sup_expr([FiniteCardinal(1), FiniteCardinal(2)]).render() == "sup(1, 2)"
