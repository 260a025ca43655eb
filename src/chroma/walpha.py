"""A symbol family whose tree rank is readable off the last symbol.

Symbols carry an arity, a color index, and a rank index. Unary symbols all
carry the family's top rank index; a sequence is allowed exactly when its
rank indices strictly descend. The rank of an allowed sequence then equals
its last rank index, which makes the family the standard source of trees
with prescribed ranks.

Finite truncations pick a finite set F of rank indices, an arity cap and a
color cap, producing an extensional diagram set whose ranks are the order
types of F below each index, clipped by the remaining arity room. The
truncation's symbols are numbered ``position_in_F * max_gamma + color``.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Optional, Sequence, Union

from ._record import record
from .diagrams import Diagram, DiagramSet, Language, RelSymbol
from .ordinal import Ordinal
from .rank import rank_table

# The most members a truncation may have, and the largest arity cap it takes; larger ones
# are refused before anything is built.
TRUNCATION_LIMIT = 1 << 20


@record
class WAlphaSymbol:
    """A family symbol: arity, color index, and ordinal rank index."""

    arity: int
    gamma: int
    index: Ordinal

    def __post_init__(self) -> None:
        if self.arity < 1:
            raise ValueError("arity must be positive")
        if self.gamma < 0:
            raise ValueError("color index must be non-negative")


@record
class WAlphaParams:
    """Family parameters: the top rank index."""

    alpha: Ordinal

    def __post_init__(self) -> None:
        if self.alpha < Ordinal.from_int(1):
            raise ValueError("the top rank index must be at least 1")


def is_allowed(params: WAlphaParams, w: Sequence[WAlphaSymbol]) -> bool:
    """True when rank indices strictly descend along the sequence.

    Unary symbols are pinned to the top index, so a head carrying anything
    else is not allowed. Arity discipline is a precondition and raises.
    """
    for pos, sym in enumerate(w, start=1):
        if sym.arity != pos:
            raise ValueError(f"symbol at position {pos} has arity {sym.arity}")
        if sym.index > params.alpha:
            return False
    if not w:
        return True
    if w[0].index != params.alpha:
        return False
    return all(w[i].index > w[i + 1].index for i in range(len(w) - 1))


def closed_form_rank(params: WAlphaParams, w: Sequence[WAlphaSymbol]) -> Ordinal:
    """The rank of an allowed nonempty sequence: its last rank index."""
    if not w:
        raise ValueError("the empty sequence has no closed-form rank")
    if not is_allowed(params, w):
        raise ValueError("sequence is not allowed")
    return w[-1].index


class WAlphaFamily:
    """Intensional membership for the full family, over WAlphaSymbol sequences."""

    def __init__(self, params: WAlphaParams):
        self.params = params

    def allows(self, w: Sequence[WAlphaSymbol]) -> bool:
        return is_allowed(self.params, w)


def usable_indices(params: WAlphaParams, f: Iterable[Union[int, Ordinal]]) -> list[Ordinal]:
    """The rank indices of F available below the pinned head, sorted ascending."""
    out = sorted({Ordinal.of(x) for x in f})
    if not out:
        raise ValueError("the index set must be nonempty")
    for x in out:
        if x > params.alpha:
            raise ValueError(f"index {x} exceeds the family's top index")
    return [x for x in out if x < params.alpha]


def truncation_symbol_index(
    params: WAlphaParams,
    f: Iterable[Union[int, Ordinal]],
    max_gamma: int,
    sym: RelSymbol,
) -> Ordinal:
    """Recover the rank index behind a truncation symbol."""
    if sym.arity == 1:
        return params.alpha
    usable = usable_indices(params, f)
    return usable[sym.id // max_gamma]


def _refuse_oversized(usable: int, max_arity: int, max_gamma: int) -> None:
    """Raise ValueError when a truncation would have more than ``TRUNCATION_LIMIT`` members.

    Besides the root it has gamma^(k+1) * C(usable, k) members of length
    k + 1 for each k up to min(usable, max_arity - 1): a colored head and
    then k of the usable indices in descending order, each colored. The sum
    stops as soon as it passes the limit, so huge caps cost a few terms.
    """
    total = 1
    for k in range(min(usable, max_arity - 1) + 1):
        total += max_gamma ** (k + 1) * comb(usable, k)
        if total > TRUNCATION_LIMIT:
            raise ValueError(
                f"a truncation of at least {total} members exceeds the limit of {TRUNCATION_LIMIT} members"
            )


def truncate(
    params: WAlphaParams,
    f: Iterable[Union[int, Ordinal]],
    max_arity: int,
    max_gamma: int = 1,
) -> DiagramSet:
    """The extensional fragment over rank indices in F, capped in arity and color.

    Heads are always present, pinned to the top index; levels from two on
    draw their indices from F strictly below the previous one. Symbol ids
    encode (index position within F, color). A fragment of more than
    ``TRUNCATION_LIMIT`` members, or with an arity cap above that limit, is
    refused with ValueError before any is built.

    The fragment is built level by level. Indices descend, so a member of
    length n + 1 has at most len(usable) - n + 1 positions left below its
    last index; each symbol of those positions is built once per level, and
    levels past the last reachable one are never visited.
    """
    if max_arity < 1:
        raise ValueError("arity cap must be at least 1")
    if max_arity > TRUNCATION_LIMIT:
        # The language keeps one count per arity up to the cap, however few members reach it.
        raise ValueError(f"an arity cap of {max_arity} exceeds the limit of {TRUNCATION_LIMIT}")
    if max_gamma < 1:
        raise ValueError("color cap must be at least 1")
    usable = usable_indices(params, f)
    _refuse_oversized(len(usable), max_arity, max_gamma)
    counts = {1: max_gamma}
    if usable:
        counts.update(dict.fromkeys(range(2, max_arity + 1), len(usable) * max_gamma))
    language = Language.of(counts)

    members: set[Diagram] = {()}
    # Each member of the current level with the number of positions below its last index.
    level = [((RelSymbol(1, g),), len(usable)) for g in range(max_gamma)]
    for arity in range(2, min(max_arity, len(usable) + 1) + 1):
        members.update([w for w, _ in level])
        row = [(RelSymbol(arity, j), j // max_gamma) for j in range((len(usable) - arity + 2) * max_gamma)]
        level = [(w + (sym,), pos) for w, ceiling in level for sym, pos in row[: ceiling * max_gamma]]
    members.update([w for w, _ in level])
    return DiagramSet(language, frozenset(members))


@record
class ClaimMismatch:
    diagram: Diagram
    expected: int
    actual: int


@record
class ClaimReport:
    ok: bool
    checked: int
    mismatches: tuple[ClaimMismatch, ...] = ()


def verify_claim(
    params: WAlphaParams,
    f: Iterable[Union[int, Ordinal]],
    max_arity: int,
    max_gamma: int = 1,
    diagram_set: Optional[DiagramSet] = None,
) -> ClaimReport:
    """Check the closed-form rank law on a truncation, node by node.

    The expected rank of a node is the order type of F below its last rank
    index, clipped by the arity room left below the node; on an uncapped
    fragment the clip is inert and the law is the bare order type. An
    explicit diagram set can be audited in place of the fresh truncation.
    """
    f = sorted({Ordinal.of(x) for x in f})
    ds = truncate(params, f, max_arity, max_gamma) if diagram_set is None else diagram_set
    ranks = rank_table(ds)
    mismatches = []
    checked = 0
    order_types: dict[RelSymbol, int] = {}  # by last symbol, found on first use
    for w in ds.members:
        if not w:
            continue
        checked += 1
        if w[-1] not in order_types:
            index = truncation_symbol_index(params, f, max_gamma, w[-1])
            order_types[w[-1]] = sum(1 for x in f if x < index)
        expected = min(order_types[w[-1]], max_arity - len(w))
        if ranks[w] != expected:
            mismatches.append(ClaimMismatch(w, expected, ranks[w]))
    mismatches.sort(key=lambda m: m.diagram)
    return ClaimReport(not mismatches, checked, tuple(mismatches))
