"""Model builders: disjoint sums and the splitting colorings of binary strings.

The splitting constructions color the universe of all length-m binary
strings. The engine is the first-difference position of two strings: among
any three strings the two adjacent differences disagree, so pair colors
driven by that position rule out monochromatic triples, and the sign
pattern of adjacent differences dispatches larger sets to component
colorings on the position universe.

Where a construction says a color is arbitrary, symbol id 0 of the right
arity is used, so builds are reproducible.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Sequence, Union

from . import ordinal
from ._record import record
from .diagrams import Diagram, RelSymbol
from .structures import ColoringStructure, canonical_subsets


def kappa(alpha: Union[int, ordinal.Ordinal]) -> ordinal.CardinalExpr:
    """The guaranteed-model-size sequence, symbolically.

    Finite indices are their own value; a successor above omega is the
    power set of the previous entry; limit indices stay atomic, collapsing
    to beth from omega squared on.
    """
    alpha = ordinal.Ordinal.of(alpha)
    if alpha.is_finite():
        return ordinal.FiniteCardinal(alpha.to_int())
    if alpha >= ordinal.OMEGA_SQUARED:
        return ordinal.beth_expr(alpha)
    if alpha.is_limit():
        return ordinal.kappa_expr(alpha)
    base, tail = alpha.split()
    out = kappa(base)
    for _ in range(tail):
        out = ordinal.PowerSetCardinal(out)
    return out


@record
class BinaryStringUniverse:
    """All binary strings of a fixed length, ordered lexicographically.

    Element ids in built structures are lexicographic ranks.
    """

    m: int

    def __post_init__(self) -> None:
        if self.m < 0:
            raise ValueError("length must be non-negative")

    @property
    def strings(self) -> list[str]:
        return ["".join(bits) for bits in product("01", repeat=self.m)]

    def rank(self, s: str) -> int:
        return int(s, 2) if s else 0


def delta(f: str, g: str) -> int:
    """The least position where two distinct equal-length strings differ."""
    if len(f) != len(g):
        raise ValueError("strings must have equal length")
    for i, (a, b) in enumerate(zip(f, g)):
        if a != b:
            return i
    raise ValueError("strings must be distinct")


def delta_sequence(xs: Sequence[str]) -> tuple[int, ...]:
    """Adjacent first-difference positions of a lexicographically sorted tuple."""
    if len(xs) < 2:
        raise ValueError("need at least two strings")
    if len(set(xs)) != len(xs):
        raise ValueError("strings must be distinct")
    if list(xs) != sorted(xs):
        raise ValueError("strings must be sorted")
    return tuple(delta(xs[i], xs[i + 1]) for i in range(len(xs) - 1))


def s_pattern(xs: Sequence[str]) -> str:
    """The rise/fall pattern of adjacent difference positions.

    Bit i is 0 when the i-th difference position is below the next one and
    1 otherwise; adjacent positions are never equal, so the pattern is
    total. Constant 0 means strictly increasing, constant 1 strictly
    decreasing.
    """
    if len(xs) < 3:
        raise ValueError("need at least three strings")
    ds = delta_sequence(xs)
    return "".join("0" if ds[i] < ds[i + 1] else "1" for i in range(len(ds) - 1))


def pattern_index(s: str) -> int:
    """Canonical index of a sign pattern: constant 0, constant 1, then the rest.

    The rest are ranked in sorted order. Only the all-zero pattern sorts
    before any of them, so a pattern's rank there is its binary value less one.
    """
    if not s:
        raise ValueError("empty pattern")
    if s.strip("01"):
        raise ValueError(f"not a binary pattern: {s!r}")
    if s == "0" * len(s):
        return 0
    if s == "1" * len(s):
        return 1
    return 1 + int(s, 2)


def build_limit_sum(components: Sequence[ColoringStructure]) -> ColoringStructure:
    """Disjoint union of components with pairwise distinct singleton colors.

    Components are relabeled onto consecutive integer ranges. A subset that
    meets two components contains two differently colored points and so is
    never monochromatic; such subsets take symbol id 0 at their size.
    """
    if not components:
        raise ValueError("need at least one component")
    roots = []
    for comp in components:
        singles = {comp.colors[(p,)] for p in comp.universe}
        if len(singles) != 1:
            raise ValueError("every component must have a uniform singleton color")
        roots.append(singles.pop())
    if len(set(roots)) != len(roots):
        raise ValueError("components must carry pairwise distinct singleton colors")

    inside = {}
    offset = 0
    for comp in components:
        remap = {p: offset + i for i, p in enumerate(comp.universe)}
        for subset, color in comp.colors.items():
            inside[tuple(sorted(remap[p] for p in subset))] = color
        offset += comp.size()
    universe = tuple(range(offset))
    arbitrary = [RelSymbol(size, 0) for size in range(offset + 1)]
    colors = {s: inside.get(s) or arbitrary[len(s)] for s in canonical_subsets(universe)}
    return ColoringStructure(universe, colors)


def build_pair_splitting(
    m: int, stem: Diagram, pair_diagrams: Sequence[Diagram]
) -> ColoringStructure:
    """Color length-m strings so that no triple is monochromatic.

    Singletons take the stem color; a pair takes the top entry of the
    diagram indexed by its first-difference position, and those diagrams
    must be pairwise distinct extensions of the stem, one per position.
    Among any three strings the two adjacent difference positions differ,
    which already breaks every triple, so larger sets take symbol id 0.

    This is the interval splitting with one unit block per position, whose
    stem is that position's pair diagram. A set of three or more strings
    always straddles two unit blocks, so their components are never read.
    """
    if len(stem) != 1:
        raise ValueError("the stem must have length 1")
    if len(pair_diagrams) != m:
        raise ValueError(f"need exactly {m} pair diagrams")
    if len(set(pair_diagrams)) != len(pair_diagrams):
        raise ValueError("pair diagrams must be pairwise distinct")
    for w in pair_diagrams:
        if len(w) != 2 or w[0] != stem[0]:
            raise ValueError("each pair diagram must be a length-2 extension of the stem")
    if m == 0:
        return ColoringStructure((0,), {(0,): stem[0]})
    units = [ColoringStructure((p,), {}) for p in range(m)]
    blocks = [IntervalBlock(1, w, w, (unit, unit)) for w, unit in zip(pair_diagrams, units)]
    return build_interval_splitting(m, blocks)


def build_k_splitting(
    m: int, stem: Diagram, components: Sequence[ColoringStructure]
) -> ColoringStructure:
    """Color length-m strings along a length-k stem and 2^(k-1) components.

    Sets of size up to k follow the stem. A set of size k+1 is dispatched
    by its sign pattern: the monotone patterns hand the set of difference
    positions to the first two components, the rest use a fixed canonical
    position set. Larger sets follow the monotone components when their
    difference positions are monotone and are otherwise never
    monochromatic, so they take symbol id 0.

    Components color subsets of the position universe 0..m-1 in the
    arity-shifted quotient language; their symbols come back up one arity.
    This is the one-block interval splitting whose pair diagram is the
    stem's first two entries.
    """
    k = len(stem)
    if k < 2:
        raise ValueError("the stem must have length at least 2")
    if len(components) != 2 ** (k - 1):
        raise ValueError(f"need exactly {2 ** (k - 1)} components")
    for comp in components:
        if len(comp.universe) != m or comp.universe != tuple(range(m)):
            raise ValueError("components must color the position universe 0..m-1")
    if m == 0:
        return ColoringStructure((0,), {(0,): stem[0]})
    return build_interval_splitting(m, [IntervalBlock(m, stem[:2], stem, tuple(components))])


@record
class IntervalBlock:
    """Per-block data for the interval splitting construction.

    ``pair_diagram`` colors pairs whose difference position falls in the
    block; ``stem`` extends it and colors the small same-block sets; the
    components color subsets of the block's own positions in the
    arity-shifted quotient language.
    """

    length: int
    pair_diagram: Diagram
    stem: Diagram
    components: tuple[ColoringStructure, ...]

    @property
    def inner_size(self) -> int:
        """The k value of this block: the stem length beyond the pair."""
        return len(self.stem) - 2


def build_interval_splitting(m: int, blocks: Sequence[IntervalBlock]) -> ColoringStructure:
    """Color length-m strings with pair colors driven by blocks of positions.

    The blocks partition the positions into consecutive intervals. A set
    whose difference positions all fall in one block follows that block's
    stem, sign-pattern dispatch, and monotone components, exactly as in the
    single-stem splitting; a set whose difference positions straddle two
    blocks contains two differently colored pairs and takes symbol id 0.
    """
    if not blocks:
        raise ValueError("need at least one block")
    if sum(b.length for b in blocks) != m:
        raise ValueError("block lengths must partition the positions")
    if any(len(b.pair_diagram) != 2 for b in blocks):
        raise ValueError("pair diagrams must have length 2")
    singles = {b.pair_diagram[0] for b in blocks}
    if len(singles) != 1:
        raise ValueError("all blocks must share the singleton color")
    single_color = singles.pop()

    spans = []
    lo = 0
    for b in blocks:
        if b.length < 1:
            raise ValueError("blocks must be nonempty")
        if len(b.stem) < 2 or b.stem[:2] != b.pair_diagram:
            raise ValueError("each stem must extend its block's pair diagram")
        if len(b.components) != 2 ** (b.inner_size + 1):
            raise ValueError(
                f"block needs {2 ** (b.inner_size + 1)} components, got {len(b.components)}"
            )
        for comp in b.components:
            if len(comp.universe) != b.length or comp.universe != tuple(range(lo, lo + b.length)):
                raise ValueError("components must color their block's positions")
        spans.append(b.components[0].universe)
        lo += b.length

    owner = [i for i, span in enumerate(spans) for _ in span]
    universe = tuple(range(2 ** m))
    colors: dict = {(i,): single_color for i in universe}
    # Within a block only strictly monotone difference sequences can be
    # colored by a component, and they fit only into length+1 points; sizes
    # above that and above every block's dispatch size are all symbol id 0.
    top = min(len(universe), max(max(b.inner_size + 3, b.length + 1) for b in blocks))
    for size in range(2, top + 1):
        arbitrary = RelSymbol(size, 0)
        # Component symbols lifted back up to this arity, one per distinct symbol.
        lifted: dict[RelSymbol, RelSymbol] = {}
        for subset in combinations(universe, size):
            # Element ids are lexicographic ranks, i.e. the strings' binary
            # values, so two strings first differ at their top differing bit.
            ds = [m - (x ^ y).bit_length() for x, y in zip(subset, subset[1:])]
            o = owner[ds[0]]
            if any(owner[d] != o for d in ds):
                colors[subset] = arbitrary
                continue
            block = blocks[o]
            inner = block.inner_size
            if size <= inner + 2:
                colors[subset] = block.stem[size - 1]
                continue
            if size == inner + 3:
                pattern = "".join("0" if x < y else "1" for x, y in zip(ds, ds[1:]))
                j = pattern_index(pattern)
                if j <= 1:
                    key = tuple(sorted(ds))
                else:
                    key = block.components[j].universe[: inner + 2]
                    if len(key) < inner + 2:
                        raise ValueError("block too short for its stem's dispatch sets")
                sym = block.components[j].colors[key]
            elif all(x < y for x, y in zip(ds, ds[1:])):
                sym = block.components[0].colors[tuple(ds)]
            elif all(x > y for x, y in zip(ds, ds[1:])):
                sym = block.components[1].colors[tuple(reversed(ds))]
            else:
                colors[subset] = arbitrary
                continue
            lift = lifted.get(sym)
            if lift is None:
                lift = lifted[sym] = RelSymbol(size, sym.id)
            colors[subset] = lift
    for size in range(top + 1, len(universe) + 1):
        colors.update(dict.fromkeys(combinations(universe, size), RelSymbol(size, 0)))
    return ColoringStructure(universe, colors)
