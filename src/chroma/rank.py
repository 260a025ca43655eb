"""The existence rank on diagram trees and its bounded exploration.

On a finite extensional tree the rank of a node is the usual well-founded
tree rank: leaves are 0 and every other node is ``1 + max`` over its
children, always a natural number. Intensional, finitely branching trees
are explored against a node budget instead, which captures the
finite-surrogate content of the infinite-rank threshold: a finitely
branching tree whose rank exceeds every budget carries an infinite branch.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from . import ordinal
from ._record import record
from .diagrams import Diagram, DiagramSet, RelSymbol


def rank_table(ds: DiagramSet) -> dict[Diagram, int]:
    """Ranks for every member, computed bottom-up by decreasing length.

    Every member starts at 0 and, once all longer members are done, its
    rank is final and ``1 + rank`` is pushed up to its parent when the
    parent is a member. A parent that is not a member reads as ``rank``
    itself, so the one lookup also decides membership.
    """
    ranks = dict.fromkeys(ds.members, 0)
    get = ranks.get
    for w in sorted(ds.members, key=len, reverse=True):
        if w:
            rank = ranks[w] + 1
            parent = w[:-1]
            if rank > get(parent, rank):
                ranks[parent] = rank
    return ranks


def er_rank(ds: DiagramSet, w: Diagram) -> int:
    """The existence rank of a member of a finite diagram set."""
    if w not in ds.members:
        raise ValueError(f"diagram {w!r} is not a member")
    return rank_table(ds)[w]


def check_rank_table(ds: DiagramSet, table: dict[Diagram, int]) -> list[Diagram]:
    """Nodes violating the rank law (leaves 0, parents 1 + max over children)."""
    bad = []
    for w in ds.sorted_members:
        kids = ds.children(w)
        expected = 1 + max(table[k] for k in kids) if kids else 0
        if table.get(w) != expected:
            bad.append(w)
    return bad


def rank_witness_chain(ds: DiagramSet, k: int) -> list[Diagram]:
    """A chain from the root whose ranks step down by one at each level.

    Returns diagrams w_0 = () through w_k with rank(w_j) = rank(()) - j,
    choosing the lexicographically first qualifying child at each step;
    raises if the root rank is below k.
    """
    if k < 0:
        raise ValueError("chain length must be non-negative")
    ranks = rank_table(ds)
    root_rank = ranks[()]
    if root_rank < k:
        raise ValueError(f"root rank {root_rank} is smaller than the requested chain length {k}")
    chain = [()]
    for j in range(1, k + 1):
        target = root_rank - j
        step = next(c for c in sorted(ds.children(chain[-1])) if ranks[c] == target)
        chain.append(step)
    return chain


def max_model_bound(
    w: Diagram,
    rank_strict_bound: Union[int, ordinal.Ordinal],
    langsize: ordinal.CardinalExpr,
) -> ordinal.CardinalExpr:
    """Symbolic size bound for models of the class pruned to ``w``.

    ``rank_strict_bound`` is a strict upper bound b + k on the rank of w;
    the bound is beth with index b + n*k + k*(k-1)/2 over the language size,
    where n is the length of w.
    """
    beta, k = ordinal.Ordinal.of(rank_strict_bound).split()
    return ordinal.beth_expr(ordinal.bound_index(beta, len(w), k), langsize)


class InfiniteDiagram:
    """A total assignment of one n-ary symbol to every positive n."""

    def __init__(self, fn: Callable[[int], RelSymbol]):
        self._fn = fn

    def __call__(self, n: int) -> RelSymbol:
        if n < 1:
            raise ValueError("positions start at 1")
        sym = self._fn(n)
        if sym.arity != n:
            raise ValueError(f"generator returned arity {sym.arity} at position {n}")
        return sym

    def prefix(self, n: int) -> Diagram:
        return tuple(self(k) for k in range(1, n + 1))

    @staticmethod
    def from_symbols(symbols) -> "InfiniteDiagram":
        """Wrap a finite symbol sequence; positions past it take symbol id 0.

        Any other continuation is an ``InfiniteDiagram`` of its own function.
        """
        symbols = tuple(symbols)

        def fn(n: int) -> RelSymbol:
            return symbols[n - 1] if n <= len(symbols) else RelSymbol(n, 0)

        return InfiniteDiagram(fn)


def infinite_diagram_consistent(family, d: InfiniteDiagram, depth: int) -> bool:
    """True when every prefix of d up to the given depth is an allowed diagram.

    ``family`` is anything with an ``allows`` method: an extensional
    diagram set or an intensional tree.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    return all(family.allows(d.prefix(n)) for n in range(1, depth + 1))


class BranchFamily:
    """The prefix closure of a single infinite diagram, as an intensional tree."""

    def __init__(self, d: InfiniteDiagram):
        self._d = d

    def allows(self, w: Diagram) -> bool:
        return w == self._d.prefix(len(w))

    def children(self, w: Diagram) -> tuple[Diagram, ...]:
        if not self.allows(w):
            return ()
        return (w + (self._d(len(w) + 1),),)


@record
class RankVerdict:
    """Either an exact finite rank or a certificate that the rank meets the budget."""

    exact: Optional[int] = None
    at_least: Optional[int] = None

    def __str__(self) -> str:
        return str(self.exact) if self.exact is not None else f">= {self.at_least}"


def has_infinite_rank_surrogate(tree, budget: int) -> RankVerdict:
    """Explore a finitely branching tree to a budget.

    Returns the exact root rank when it is below the budget and the
    certificate ``at_least=budget`` otherwise. ``tree`` needs a
    ``children`` enumerator; extensional diagram sets qualify. The walk is
    depth-first over an explicit stack, so deep trees do not reach Python's
    recursion limit; it stops at the first node the budget cannot settle.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    kids = tree.children(())
    if not kids:
        return RankVerdict(exact=0)
    # Per open node: its unexplored children and the best rank among the
    # explored ones. A child of the deepest open node has len(pending) ancestors.
    pending, best = [iter(kids)], [0]
    while True:
        kid = next(pending[-1], None)
        if kid is None:
            pending.pop()
            rank = 1 + best.pop()
            if not pending:
                return RankVerdict(exact=rank)
            best[-1] = max(best[-1], rank)
        elif len(pending) == budget:
            return RankVerdict(at_least=budget)
        else:
            kids = tree.children(kid)
            if kids:
                pending.append(iter(kids))
                best.append(0)
