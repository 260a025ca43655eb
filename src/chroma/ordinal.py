"""Cantor-normal-form ordinals below epsilon-0, plus symbolic cardinal expressions.

An ordinal is a finite descending sum of terms ``w^e * c`` with ordinal
exponents ``e`` and positive integer coefficients ``c``; the empty sum is 0.
This covers every rank value the finite machinery can produce, and every
limit ordinal in range has cofinality omega, so one fundamental-sequence
scheme is enough.

Cardinal values above the finite range are never evaluated, only reported:
``CardinalExpr`` is a symbolic tree over finite values, suprema, power sets,
beth-indexed and kappa-indexed atoms.
"""

from __future__ import annotations

import re
from typing import Iterable, Union

from ._record import record


@record
class Ordinal:
    """An ordinal below epsilon-0 in Cantor normal form.

    ``terms`` is a tuple of (exponent, coefficient) pairs with strictly
    descending exponents and coefficients >= 1.
    """

    terms: tuple[tuple["Ordinal", int], ...] = ()

    def __post_init__(self) -> None:
        prev = None
        for exp, coeff in self.terms:
            if not isinstance(exp, Ordinal):
                raise TypeError(f"exponent must be Ordinal, got {exp!r}")
            if not isinstance(coeff, int) or coeff < 1:
                raise ValueError(f"coefficient must be a positive integer, got {coeff!r}")
            if prev is not None and not _less(exp, prev):
                raise ValueError("exponents must be strictly descending")
            prev = exp

    @staticmethod
    def of(value: Union[int, "Ordinal"]) -> "Ordinal":
        if isinstance(value, Ordinal):
            return value
        return Ordinal.from_int(value)

    @staticmethod
    def from_int(n: int) -> "Ordinal":
        if n < 0:
            raise ValueError("ordinals are non-negative")
        if n == 0:
            return ZERO
        return Ordinal(((ZERO, n),))

    @staticmethod
    def omega_power(exp: Union[int, "Ordinal"], coeff: int = 1) -> "Ordinal":
        """The ordinal ``w^exp * coeff``."""
        exp = Ordinal.of(exp)
        if coeff == 0:
            return ZERO
        return Ordinal(((exp, coeff),))

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_finite(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0].is_zero())

    def to_int(self) -> int:
        if not self.is_finite():
            raise ValueError(f"{self} is not finite")
        return self.terms[0][1] if self.terms else 0

    def is_successor(self) -> bool:
        return bool(self.terms) and self.terms[-1][0].is_zero()

    def is_limit(self) -> bool:
        """True for nonzero ordinals with no finite tail."""
        return bool(self.terms) and not self.terms[-1][0].is_zero()

    def split(self) -> tuple["Ordinal", int]:
        """Decompose into (b, k) with b zero or a limit ordinal and self = b + k."""
        if self.is_successor():
            return Ordinal(self.terms[:-1]), self.terms[-1][1]
        return self, 0

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: Union[int, "Ordinal"]) -> "Ordinal":
        other = Ordinal.of(other)
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        lead = other.terms[0][0]
        kept = [t for t in self.terms if _less(lead, t[0])]
        merged = list(other.terms)
        for exp, coeff in self.terms:
            if exp == lead:
                merged[0] = (lead, coeff + merged[0][1])
                break
        return Ordinal(tuple(kept) + tuple(merged))

    # -- order -------------------------------------------------------------

    def __lt__(self, other: object) -> bool:
        return compare(self, _coerce(other)) < 0

    def __le__(self, other: object) -> bool:
        return compare(self, _coerce(other)) <= 0

    def __gt__(self, other: object) -> bool:
        return compare(self, _coerce(other)) > 0

    def __ge__(self, other: object) -> bool:
        return compare(self, _coerce(other)) >= 0

    def __str__(self) -> str:
        return render_ordinal(self)

    def __repr__(self) -> str:
        return f"Ordinal[{render_ordinal(self)}]"


ZERO = Ordinal()
ONE = Ordinal.from_int(1)
OMEGA = Ordinal.omega_power(1)
OMEGA_SQUARED = Ordinal.omega_power(2)


def _coerce(value: object) -> Ordinal:
    if isinstance(value, Ordinal):
        return value
    if isinstance(value, int):
        return Ordinal.from_int(value)
    raise TypeError(f"cannot compare Ordinal with {type(value).__name__}")


def _less(a: Ordinal, b: Ordinal) -> bool:
    return compare(a, b) < 0


def compare(a: Union[int, Ordinal], b: Union[int, Ordinal]) -> int:
    """Total order on ordinals: -1, 0 or 1."""
    a, b = Ordinal.of(a), Ordinal.of(b)
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = compare(ea, eb)
        if c != 0:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a.terms) != len(b.terms):
        return -1 if len(a.terms) < len(b.terms) else 1
    return 0


def split(a: Union[int, Ordinal]) -> tuple[Ordinal, int]:
    """Write ``a = b + k`` with b zero or a limit ordinal and k a natural."""
    return Ordinal.of(a).split()


def fundamental_sequence(beta: Ordinal, i: int) -> Ordinal:
    """The i-th entry of the canonical cofinal sequence below a limit ordinal.

    Uses the standard CNF assignment: ``w^(e+1)`` steps through ``w^e * i``
    and a limit exponent recurses on its own sequence. Values are strictly
    increasing in i and cofinal in beta.
    """
    if not beta.is_limit():
        raise ValueError(f"{beta} is not a limit ordinal")
    if i < 0:
        raise ValueError("index must be non-negative")
    *head, (exp, coeff) = beta.terms
    prefix = Ordinal(tuple(head) + (((exp, coeff - 1),) if coeff > 1 else ()))
    exp_base, exp_tail = exp.split()
    if exp_tail >= 1:
        return prefix + Ordinal.omega_power(exp_base + (exp_tail - 1), i)
    return prefix + Ordinal.omega_power(fundamental_sequence(exp, i))


def bound_index(beta: Union[int, Ordinal], n: int, k: int) -> Ordinal:
    """The index ``beta + n*k + k*(k-1)/2`` used in the model-size bound."""
    beta = Ordinal.of(beta)
    _, tail = beta.split()
    if tail != 0:
        raise ValueError(f"{beta} is neither 0 nor a limit ordinal")
    if n < 0 or k < 0:
        raise ValueError("n and k must be naturals")
    return beta + (n * k + k * (k - 1) // 2)


# -- text form -------------------------------------------------------------

def render_ordinal(a: Ordinal) -> str:
    """Render CNF as e.g. ``w^2*3+w*1+4``; nested exponents in parentheses."""
    if a.is_zero():
        return "0"
    parts = []
    for exp, coeff in a.terms:
        if exp.is_zero():
            parts.append(str(coeff))
        elif exp == ONE:
            parts.append(f"w*{coeff}")
        elif exp.is_finite():
            parts.append(f"w^{exp.to_int()}*{coeff}")
        else:
            parts.append(f"w^({render_ordinal(exp)})*{coeff}")
    return "+".join(parts)


_TOKEN = re.compile(r"\s*(w|\^|\*|\+|\(|\)|\d+)")


def parse_ordinal(text: str) -> Ordinal:
    """Parse the textual CNF form produced by :func:`render_ordinal`."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"bad ordinal syntax at position {pos}: {text!r}")
        tokens.append(m.group(1))
        pos = m.end()
    result, i = _parse_sum(tokens + [""], 0)  # "" marks the end for every lookahead
    if i < len(tokens):
        raise ValueError(f"trailing tokens in ordinal: {tokens[i:]!r}")
    return result


def _parse_sum(tokens: list[str], i: int) -> tuple[Ordinal, int]:
    total, i = _parse_term(tokens, i)
    while tokens[i] == "+":
        term, i = _parse_term(tokens, i + 1)
        total = total + term
    return total, i


def _parse_term(tokens: list[str], i: int) -> tuple[Ordinal, int]:
    head, i = tokens[i], i + 1
    if not head:
        raise ValueError("empty ordinal term")
    if head.isdigit():
        return Ordinal.from_int(int(head)), i
    if head != "w":
        raise ValueError(f"unexpected token {head!r} in ordinal")
    exp = ONE
    if tokens[i] == "^":
        i += 1
        if tokens[i] == "(":
            exp, i = _parse_sum(tokens, i + 1)
            if tokens[i] != ")":
                raise ValueError("unbalanced parentheses in ordinal exponent")
            i += 1
        elif tokens[i].isdigit():
            exp = Ordinal.from_int(int(tokens[i]))
            i += 1
        else:
            raise ValueError("missing exponent after '^'")
    coeff = 1
    if tokens[i] == "*":
        if not tokens[i + 1].isdigit():
            raise ValueError("missing coefficient after '*'")
        coeff = int(tokens[i + 1])
        i += 2
    return Ordinal.omega_power(exp, coeff), i


# -- symbolic cardinals ----------------------------------------------------

def _render_index(index: Ordinal) -> str:
    text = render_ordinal(index)
    return text if index.is_finite() else f"({text})"


class CardinalExpr:
    """Base class for symbolic cardinal values. Never evaluated above omega."""

    def render(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.render()


@record
class FiniteCardinal(CardinalExpr):
    value: int

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError("finite cardinal must be non-negative")

    def render(self) -> str:
        return str(self.value)


@record
class KappaCardinal(CardinalExpr):
    """The growth-sequence atom at a limit index between omega and omega^2.

    Finite indices collapse to their value and indices at or above omega^2
    collapse to beth atoms, so only the genuinely irreducible range is
    representable here.
    """

    index: Ordinal

    def __post_init__(self) -> None:
        if self.index < OMEGA or self.index >= OMEGA_SQUARED:
            raise ValueError("kappa atoms live in [omega, omega^2); use kappa_expr")

    def render(self) -> str:
        return f"kappa_{_render_index(self.index)}"


@record
class BethCardinal(CardinalExpr):
    """``beth_index(base)``; base None means the first infinite cardinal."""

    index: Ordinal
    base: CardinalExpr | None = None

    def render(self) -> str:
        if self.base is None:
            return f"beth_{_render_index(self.index)}"
        return f"beth_{_render_index(self.index)}({self.base.render()})"


@record
class PowerSetCardinal(CardinalExpr):
    base: CardinalExpr

    def render(self) -> str:
        return f"2^{self.base.render()}"


@record
class SupremumCardinal(CardinalExpr):
    parts: tuple[CardinalExpr, ...]

    def render(self) -> str:
        return "sup(" + ", ".join(p.render() for p in self.parts) + ")"


def kappa_expr(index: Union[int, Ordinal]) -> CardinalExpr:
    """Normalize a kappa-indexed atom: numeric below omega, beth from omega^2 on."""
    index = Ordinal.of(index)
    if index.is_finite():
        return FiniteCardinal(index.to_int())
    if index >= OMEGA_SQUARED:
        return BethCardinal(index)
    return KappaCardinal(index)


def beth_expr(index: Union[int, Ordinal], base: CardinalExpr | None = None) -> CardinalExpr:
    """``beth_index(base)``, with beth_0 collapsing to the base itself."""
    index = Ordinal.of(index)
    if index.is_zero() and base is not None:
        return base
    return BethCardinal(index, base)


def sup_expr(parts: Iterable[CardinalExpr]) -> CardinalExpr:
    parts = tuple(parts)
    if not parts:
        raise ValueError("supremum of nothing")
    if len(parts) == 1:
        return parts[0]
    return SupremumCardinal(parts)
