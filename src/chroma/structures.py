"""Finite coloring structures, monochromaticity, and class membership.

A coloring structure is a finite universe of integers together with a total
coloring of its nonempty subsets, where a subset of size n receives an
n-ary symbol. A subset is monochromatic when, for each size, all its
equal-size subsets share a color; the class of a diagram set consists of
the structures whose monochromatic subsets all have allowed diagrams.
"""

from __future__ import annotations

import json
from functools import cache
from itertools import chain, combinations, repeat
from math import comb
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from . import rank
from ._record import record
from .diagrams import Diagram, RelSymbol, _whole

Subset = tuple[int, ...]


def canonical_subsets(points: Sequence[int], start: int = 1) -> Iterator[Subset]:
    """The subsets of sorted ``points`` from size ``start`` up, by size, then lexicographically.

    This is the one canonical subset order. It fixes the search order, the
    ``nodes`` count, certificates and the minimal violating subset of every
    report. Subsets are generated one at a time.
    """
    return chain.from_iterable(combinations(points, n) for n in range(start, len(points) + 1))


@record
class ColoringStructure:
    """A finite universe with a total coloring of its nonempty subsets."""

    universe: tuple[int, ...]
    colors: dict[Subset, RelSymbol]

    def __post_init__(self) -> None:
        if tuple(sorted(set(self.universe))) != self.universe:
            raise ValueError("universe must be sorted and duplicate-free")

    def color(self, subset: Iterable[int]) -> RelSymbol:
        return self.colors[tuple(sorted(subset))]

    def size(self) -> int:
        return len(self.universe)

    def subsets(self) -> list[Subset]:
        return list(canonical_subsets(self.universe))

    def __hash__(self) -> int:
        return hash((self.universe, tuple(sorted(self.colors.items()))))


def validate_structure(m: ColoringStructure) -> None:
    """Raise unless the coloring is total and arity-disciplined.

    Subsets are generated one at a time, so a partial coloring fails at its
    first uncolored subset after at most one lookup more than it has colors,
    however large its universe. Once every subset is found colored, any extra
    key shows as a count mismatch, and only then are the extras listed.
    """
    for subset in canonical_subsets(m.universe):
        sym = m.colors.get(subset)
        if sym is None:
            raise ValueError(f"subset {subset} is uncolored")
        if sym.arity != len(subset):
            raise ValueError(f"subset {subset} carries arity-{sym.arity} symbol {sym}")
    if len(m.colors) != (1 << len(m.universe)) - 1:
        extras = set(m.colors).difference(canonical_subsets(m.universe))
        raise ValueError(f"colors assigned outside the universe: {sorted(extras)!r}")


def is_monochromatic(m: ColoringStructure, subset: Iterable[int]) -> bool:
    """Direct check: all equal-size subsets share a color, for every size."""
    a = tuple(sorted(subset))
    if not a:
        raise ValueError("the empty set has no color")
    for size in range(1, len(a) + 1):
        colors = {m.color(b) for b in combinations(a, size)}
        if len(colors) > 1:
            return False
    return True


def diagram_of(m: ColoringStructure, subset: Iterable[int]) -> Diagram:
    """The diagram of a monochromatic subset: its common color at each size."""
    a = tuple(sorted(subset))
    if not is_monochromatic(m, a):
        raise ValueError(f"subset {a} is not monochromatic")
    return tuple(m.color(a[:size]) for size in range(1, len(a) + 1))


# The most points a search lattice may have. Setting up a search on n points
# lists the 2^n subsets: about 0.14 s and 27 MB at 16 points and 0.66 s and
# 116 MB at 18, four times as much for every two points more. Lattices stay
# cached, so a scan that builds every size up to the limit peaks near 0.75 GB.
LATTICE_LIMIT = 20


class LatticeTooLarge(ValueError):
    """A search lattice would have more points than ``LATTICE_LIMIT``."""


@cache
def _subsets(universe: tuple[int, ...]) -> tuple[Subset, ...]:
    """The subsets of a sorted ``universe`` by lattice position (see ``_one_smaller``).

    Every lattice is built from these lists, so this is where a lattice
    above ``LATTICE_LIMIT`` points is refused, before any of it is built.
    """
    if len(universe) > LATTICE_LIMIT:
        raise LatticeTooLarge(
            f"a search on {len(universe)} points exceeds the limit of {LATTICE_LIMIT} points"
        )
    return tuple(canonical_subsets(universe, 0))


@cache
def _one_smaller(n: int) -> tuple[tuple[int, ...], ...]:
    """The subset lattice of n positions, shared by every universe of size n.

    Subsets of ``range(n)`` are numbered in the canonical order from the
    empty set at 0, the order ``canonical_subsets`` yields them in for any
    sorted universe of n points; entry i lists the numbers of subset i's
    one-smaller subsets.
    """
    order = _subsets(tuple(range(n)))
    number = {subset: i for i, subset in enumerate(order)}
    return tuple(
        tuple(number[b] for b in combinations(subset, len(subset) - 1)) if subset else ()
        for subset in order
    )


@record
class MembershipReport:
    ok: bool
    violating_subset: Optional[Subset] = None
    diagram: Optional[Diagram] = None

    def __bool__(self) -> bool:
        return self.ok


def _monochromatic(universe: Subset, color: Callable[[Subset], RelSymbol]) -> Iterator[tuple[Subset, Diagram]]:
    """Each monochromatic subset of a sorted ``universe`` with its diagram, in the canonical order.

    A set is monochromatic only if its prefix is, so each size extends only
    the monochromatic sets of the size below, each by every later point, and
    keeps a candidate when all its one-smaller subsets carry its prefix's
    diagram, since a set is monochromatic exactly when its one-smaller
    subsets all are, with one common diagram. Only colors of candidates are
    read, each by one call of ``color``.
    """
    later = {p: universe[i + 1 :] for i, p in enumerate(universe)}
    level: dict[Subset, Diagram] = {(): ()}
    while level:
        below, level = level, {}
        for prefix, diagram in below.items():
            for p in later[prefix[-1]] if prefix else universe:
                subset = prefix + (p,)
                for b in combinations(subset, len(prefix)):
                    if below.get(b) != diagram:
                        break
                else:
                    level[subset] = extended = diagram + (color(subset),)
                    yield subset, extended


def monochromatic_table(m: ColoringStructure) -> dict[Subset, Optional[Diagram]]:
    """Diagrams of all monochromatic subsets, None for the rest, in the canonical order."""
    table: dict[Subset, Optional[Diagram]] = dict.fromkeys(canonical_subsets(m.universe))
    table.update(_monochromatic(m.universe, m.colors.__getitem__))
    return table


def in_class(m: ColoringStructure, family) -> MembershipReport:
    """Check every monochromatic subset's diagram against the family.

    Only monochromatic subsets are visited, by size and then
    lexicographically, so a failure reports the minimal violating subset; in
    the splitting models almost no large set is monochromatic, so a 16-point
    structure costs far fewer than its 65,535 subsets. ``m`` must color
    every nonempty subset of its universe, and ``family`` is anything with
    an ``allows`` method.
    """
    return membership(m.universe, m.colors.__getitem__, family)


def membership(universe: Subset, color: Callable[[Subset], RelSymbol], family) -> MembershipReport:
    """``in_class`` of the structure on a sorted ``universe`` whose subsets ``color`` colors."""
    for subset, diagram in _monochromatic(universe, color):
        if not family.allows(diagram):
            return MembershipReport(False, subset, diagram)
    return MembershipReport(True)


def monochromatic_model(
    d: Union[Diagram, rank.InfiniteDiagram], n: int, universe: Optional[Iterable[int]] = None
) -> ColoringStructure:
    """The structure on n points whose every size-k subset is colored d(k)."""
    if isinstance(d, tuple):
        if n > len(d):
            raise ValueError(f"diagram of length {len(d)} cannot color {n} points")
        prefix = d[:n]
    else:
        prefix = d.prefix(n)
    points = tuple(sorted(universe)) if universe is not None else tuple(range(n))
    if len(points) != n:
        raise ValueError("universe size does not match n")
    colors = {subset: prefix[len(subset) - 1] for subset in canonical_subsets(points)}
    return ColoringStructure(points, colors)


def restrict(m: ColoringStructure, subset: Iterable[int]) -> ColoringStructure:
    """The substructure on a subset of the universe."""
    points = tuple(sorted(subset))
    if not set(points) <= set(m.universe):
        raise ValueError("not a subset of the universe")
    colors = {s: m.colors[s] for s in canonical_subsets(points)}
    return ColoringStructure(points, colors)


def is_substructure(small: ColoringStructure, big: ColoringStructure) -> bool:
    """Containment of universes plus agreement of colors on the small side."""
    if not set(small.universe) <= set(big.universe):
        return False
    return all(big.colors[s] == c for s, c in small.colors.items())


@record
class TripleExtension:
    """Three structures grown around a common fresh set, embeddings the identity."""

    n1: ColoringStructure
    n2: ColoringStructure
    n3: ColoringStructure
    added: tuple[int, ...]


def extend_triple(
    m1: ColoringStructure,
    m2: ColoringStructure,
    m3: ColoringStructure,
    fresh: Iterable[int],
    d: rank.InfiniteDiagram,
    family=None,
) -> TripleExtension:
    """Extend a nested triple by a fresh set, coloring new subsets along d.

    Subsets inside an old universe keep their colors; every subset meeting
    the fresh set gets d at its size. When a family is supplied, d must be
    consistent with it deep enough to cover the largest new structure.
    """
    fresh = tuple(sorted(fresh))
    if not (is_substructure(m1, m2) and is_substructure(m1, m3)):
        raise ValueError("the first structure must be a substructure of the other two")
    occupied = set(m2.universe) | set(m3.universe)
    if occupied & set(fresh):
        raise ValueError("the fresh set must be disjoint from both universes")
    depth = max(m2.size(), m3.size()) + len(fresh)
    if family is not None and depth >= 1 and not rank.infinite_diagram_consistent(family, d, depth):
        raise ValueError("the infinite diagram is not allowed to the required depth")

    def grow(m: ColoringStructure) -> ColoringStructure:
        points = tuple(sorted(set(m.universe) | set(fresh)))
        colors = {
            subset: m.colors[subset] if set(subset) <= set(m.universe) else d(len(subset))
            for subset in canonical_subsets(points)
        }
        return ColoringStructure(points, colors)

    return TripleExtension(grow(m1), grow(m2), grow(m3), fresh)


# -- JSON interchange -------------------------------------------------------

def subset_key(subset: Subset) -> str:
    """The compact JSON text of a subset, e.g. ``"[0,1]"``."""
    return "[" + ",".join(map(str, subset)) + "]"


def _canonical_keys(universe: Subset) -> Iterator[str]:
    """The ``subset_key`` of each nonempty subset of a sorted universe, in the canonical order.

    The points are written once, and each key joins its points' texts. Keys
    are made one at a time, so no caller need hold them all.
    """
    return (f"[{','.join(texts)}]" for texts in canonical_subsets([str(p) for p in universe]))


def structure_to_json(m: ColoringStructure) -> dict:
    """The JSON object of a structure, colors in the structure's own order.

    Each distinct symbol is written as one shared ``[arity, id]`` list, and
    each key is the ``subset_key`` of its colored subset, so a partial
    structure never enumerates its universe. ``build`` writes every
    nonempty model through ``structure_text`` instead, and only the empty
    one through here.
    """
    keys = map(subset_key, m.colors)
    pairs = {sym: [sym.arity, sym.id] for sym in set(m.colors.values())}
    colors = dict(zip(keys, map(pairs.__getitem__, m.colors.values())))
    return {"universe": list(m.universe), "colors": colors}


# Items per chunk of a structure's text (see ``structure_text``).
_CHUNK = 2048


def structure_text(m: ColoringStructure) -> Iterator[str]:
    """``json.dumps(structure_to_json(m), indent=2, sort_keys=True) + "\\n"`` in chunks.

    ``m`` must be nonempty and color every nonempty subset of its universe
    in the canonical order, as every model builder does: the colors are
    paired with ``_canonical_keys`` by position. Each distinct
    symbol's text is rendered once, and each subset's item is one f-string
    of its key and that text. Sorting the items orders them as ``sort_keys``
    orders the keys, since no canonical key is a prefix of another. They are
    written ``_CHUNK`` at a time, so no text of the whole structure is made.
    """
    texts = {
        sym: f"[\n      {json.dumps(sym.arity)},\n      {json.dumps(sym.id)}\n    ]"
        for sym in set(m.colors.values())
    }
    keys = _canonical_keys(m.universe)
    items = [f'"{key}": {text}' for key, text in zip(keys, map(texts.__getitem__, m.colors.values()))]
    items.sort()
    head = '{\n  "colors": {\n    '
    for start in range(0, len(items), _CHUNK):
        yield head + ",\n    ".join(items[start : start + _CHUNK])
        head = ",\n    "
    yield '\n  },\n  "universe": [\n    ' + ",\n    ".join(map(json.dumps, m.universe)) + "\n  ]\n}\n"


def _walk_colors(raw: dict, universe: Subset) -> Optional[dict[tuple, RelSymbol]]:
    """The RelSymbol of each distinct ``[arity, id]`` pair of a total file, checked in bulk.

    Only when ``raw`` holds one color per nonempty subset of a universe
    without a repeated point, so that a short input never enumerates a large
    universe, its value at each key of ``_canonical_keys`` is looked up once
    and all are checked to be lists in one pass; then, per subset size, each
    distinct pair is read once as a symbol of that size. None, and nothing
    raised, when the counts differ, at a key missing, or at a value that is
    not a symbol of its subset's size. Otherwise every key of ``raw`` is
    canonical and the coloring is total and arity-disciplined, as
    ``validate_structure`` would find. Only ``structure_colors`` calls it.
    """
    n = len(universe)
    if len(raw) != (1 << n) - 1 or len(set(universe)) < n:
        return None
    values = list(map(raw.get, _canonical_keys(universe)))
    if not all(map(isinstance, values, repeat(list))):
        return None
    symbols = {}
    stop = 0
    try:
        for size in range(1, n + 1):
            start, stop = stop, stop + comb(n, size)
            for pair in set(map(tuple, values[start:stop])):
                arity, id_ = pair
                if _whole(arity) != size:
                    return None
                symbols[pair] = RelSymbol(size, _whole(id_))
    except (TypeError, ValueError, OverflowError):
        return None
    return symbols


def _read_colors(raw: dict) -> dict[Subset, RelSymbol]:
    """The colors of a structure's JSON in file order, one RelSymbol per [arity, id] pair.

    Every key is parsed as a JSON list of ints, and the first bad entry raises.
    """
    symbols = {}
    colors = {}
    for key, pair in raw.items():
        try:
            parsed = json.loads(key)
        except RecursionError:
            raise ValueError("subset key nested too deeply") from None
        subset = tuple(sorted(map(_whole, parsed)))
        try:
            arity, id_ = pair
        except TypeError:
            raise TypeError(f"color {pair!r} of subset {key} is not a list") from None
        except ValueError:
            raise TypeError(f"color {pair!r} of subset {key} has length {len(pair)}, not 2") from None
        sym = symbols.get((arity, id_))
        if sym is None:
            # Symbols are kept by value, so only a pair of numbers finds one;
            # a string or object never does and is refused here.
            if not isinstance(pair, list):
                raise TypeError(f"color {pair!r} is not a list")
            sym = RelSymbol(_whole(arity), _whole(id_))
            sym = symbols.setdefault(sym, sym)
        colors[subset] = sym
    return colors


def structure_from_json(data: dict) -> ColoringStructure:
    """Read a structure; keys may be any JSON int list. Bad shapes raise ValueError.

    The colors are read in file order, and the structure is checked by
    ``validate_structure``. ``member`` checks a total canonical file in bulk
    through ``structure_colors`` instead.
    """
    try:
        universe = tuple(sorted(_whole(x) for x in data["universe"]))
        colors = _read_colors(data["colors"])
    except KeyError as e:
        raise ValueError(f"missing key {e}") from None
    except OverflowError as e:
        raise ValueError(str(e)) from None
    except (TypeError, AttributeError) as e:
        raise ValueError(
            "a structure is {'universe': [int, ...], 'colors': {'[int, ...]': [arity, id]}}"
            f" ({e})"
        ) from None
    m = ColoringStructure(universe, colors)
    validate_structure(m)
    return m


def structure_colors(data: dict) -> tuple[Subset, Callable[[Subset], RelSymbol]]:
    """The universe of a structure's JSON and its color getter, with ``structure_from_json``'s errors.

    A total file that ``_walk_colors`` accepts builds no subset and no
    colors dict: the getter reads a color off the file when asked. Any
    other file, or one whose shape the check cannot read, is read by
    ``structure_from_json``, which raises what it finds wrong.
    """
    try:
        universe = tuple(sorted(map(_whole, data["universe"])))
        raw = data["colors"]
        symbols = _walk_colors(raw, universe)
    except (LookupError, TypeError, AttributeError, ValueError, OverflowError):
        symbols = None  # structure_from_json raises it again, in its own words
    if symbols is None:
        m = structure_from_json(data)
        return m.universe, m.colors.__getitem__
    return universe, lambda subset: symbols[tuple(raw[subset_key(subset)])]
