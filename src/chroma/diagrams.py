"""Relational languages, diagrams, and prefix-closed diagram sets.

A diagram is a finite sequence of relation symbols with the arity at
position k equal to k; a diagram set is a finite prefix-closed collection
of diagrams, viewed as a tree rooted at the empty diagram. The two tree
surgeries used everywhere downstream live here as well: pruning to the
members comparable with a given set, and quotienting by a fixed stem.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import Iterable, NamedTuple, Optional

from . import ordinal
from ._record import record


class RelSymbol(NamedTuple):
    """A relation symbol, identified structurally by (arity, id)."""

    arity: int
    id: int


Diagram = tuple[RelSymbol, ...]

EMPTY_DIAGRAM: Diagram = ()


def make_diagram(pairs: Iterable[tuple[int, int]]) -> Diagram:
    return tuple(RelSymbol(a, i) for a, i in pairs)


@record
class Language:
    """Per-arity symbol counts, tracked up to a maximum arity.

    ``counts`` maps a contiguous arity range starting at 1 to the number of
    symbols at each arity (at least one each). Every language implicitly
    carries one symbol at each arity beyond the tracked maximum, matching
    the ambient guarantee of at least one relation per arity; with
    ``repeat=True`` the count of the largest tracked arity persists
    instead, which is how richer unbounded languages are described
    finitely.
    """

    counts: tuple[tuple[int, int], ...]
    repeat: bool = False

    def __post_init__(self) -> None:
        for arity, count in self.counts:
            if count < 1:
                raise ValueError(f"arity {arity} must have at least one symbol")
        tracked = [a for a, _ in self.counts]
        if tracked != list(range(1, len(tracked) + 1)):
            raise ValueError("counts must cover a contiguous arity range starting at 1")

    @staticmethod
    def of(counts: dict[int, int], repeat: bool = False) -> "Language":
        return Language(tuple(sorted(counts.items())), repeat)

    def count(self, arity: int) -> int:
        """Number of symbols of the given arity; never below one."""
        if arity < 1:
            return 0
        if arity <= len(self.counts):
            return self.counts[arity - 1][1]
        if self.repeat and self.counts:
            return self.counts[-1][1]
        return 1

    def symbols(self, arity: int) -> list[RelSymbol]:
        return [RelSymbol(arity, i) for i in range(self.count(arity))]

    def has_symbol(self, sym: RelSymbol) -> bool:
        return 0 <= sym.id < self.count(sym.arity)

    def size(self) -> ordinal.CardinalExpr:
        """Size of the tracked fragment: finite, or the first infinite cardinal when repeating."""
        if self.repeat:
            return ordinal.kappa_expr(ordinal.OMEGA)
        return ordinal.FiniteCardinal(sum(c for _, c in self.counts))

    def shift(self, k: int) -> "Language":
        """The language whose n-ary symbols are the original (n+k)-ary ones."""
        if k < 0:
            raise ValueError("shift must be non-negative")
        if k == 0:
            return self
        shifted = tuple((a - k, c) for a, c in self.counts if a > k)
        return Language(shifted, self.repeat)


@record
class DiagramSet:
    """A finite prefix-closed set of diagrams over a language."""

    language: Language
    members: frozenset[Diagram]

    @staticmethod
    def of(language: Language, members: Iterable[Diagram]) -> "DiagramSet":
        return DiagramSet(language, frozenset(members))

    @cached_property
    def sorted_members(self) -> tuple[Diagram, ...]:
        """Members in canonical order: lexicographic on symbol sequences."""
        return tuple(sorted(self.members))

    @cached_property
    def _children_index(self) -> dict[Diagram, tuple[Diagram, ...]]:
        index: dict[Diagram, list[Diagram]] = {m: [] for m in self.members}
        for m in self.sorted_members:
            if m:
                parent = m[:-1]
                if parent in index:
                    index[parent].append(m)
        return {k: tuple(v) for k, v in index.items()}

    def __contains__(self, w: Diagram) -> bool:
        return w in self.members

    def allows(self, w: Diagram) -> bool:
        return w in self.members

    def children(self, w: Diagram) -> tuple[Diagram, ...]:
        return self._children_index.get(w, ())

    def level(self, n: int) -> set[Diagram]:
        """All members of length n; level 0 is the singleton of the empty diagram."""
        return {m for m in self.members if len(m) == n}


@record
class ValidationReport:
    ok: bool
    diagram: Optional[Diagram] = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


def _check_member(ds: DiagramSet, m: Diagram) -> Optional[ValidationReport]:
    """The first fault of one member, position by position, or None when it has none."""
    for pos, sym in enumerate(m, start=1):
        if sym.arity != pos:
            return ValidationReport(
                False, m, f"arity mismatch at position {pos}: symbol has arity {sym.arity}"
            )
        if not ds.language.has_symbol(sym):
            return ValidationReport(
                False, m, f"symbol {sym} not in the language at position {pos}"
            )
    if m and m[:-1] not in ds.members:
        return ValidationReport(False, m, "missing prefix")
    return None


def validate(ds: DiagramSet) -> ValidationReport:
    """Check nonemptiness, arity discipline, symbol bounds, and prefix closure.

    Reports the first violating diagram in canonical order. One unsorted
    pass checks each nonempty member's last symbol and that its prefix is a
    member; by induction over prefixes that covers every position. The
    first violator in canonical order fails this one-symbol check, since
    otherwise its prefix, which sorts earlier, would violate first; so the
    report is the full check of the smallest member failing it.
    """
    members = ds.members
    if EMPTY_DIAGRAM not in members:
        return ValidationReport(False, None, "the empty diagram is missing")
    in_language: dict[RelSymbol, bool] = {}
    failed = []
    for m in members:
        if m:
            sym = m[-1]
            allowed = in_language.get(sym)
            if allowed is None:
                allowed = in_language[sym] = ds.language.has_symbol(sym)
            if not allowed or sym.arity != len(m) or m[:-1] not in members:
                failed.append(m)
    if failed:
        return _check_member(ds, min(failed))
    return ValidationReport(True)


def prune(ds: DiagramSet, keep: Iterable[Diagram]) -> DiagramSet:
    """Restrict to members comparable (prefix or extension) with some kept diagram."""
    keep = set(keep)
    if not keep:
        raise ValueError("prune needs at least one diagram to keep")
    missing = keep - ds.members
    if missing:
        raise ValueError(f"prune set is not contained in the diagram set: {sorted(missing)!r}")

    # w and u are comparable when the shorter is a prefix of the longer:
    # u's extensions are the members whose first len(u) symbols are u, and
    # u's prefixes are the members among u[:0], ..., u[:len(u) - 1].
    members: set[Diagram] = set()
    for u in keep:
        n = len(u)
        members |= {w for w in ds.members if w[:n] == u}
        members |= ds.members.intersection([u[:k] for k in range(n)])
    return DiagramSet(ds.language, frozenset(members))


def quotient(ds: DiagramSet, stem: Diagram) -> tuple[Language, DiagramSet]:
    """Chop a stem off the tree and shift arities down by its length.

    The result collects the suffixes of all members extending ``stem``; a
    symbol of original arity n+k reappears with arity n and the same id.
    Each distinct symbol is shifted once.
    """
    k = len(stem)
    if k < 1:
        raise ValueError("the stem must be a nonempty diagram")
    if stem not in ds.members:
        raise ValueError("the stem is not a member of the diagram set")
    language = ds.language.shift(k)
    tails = [w[k:] for w in ds.members if w[:k] == stem]
    shifted = {sym: RelSymbol(sym.arity - k, sym.id) for sym in set(chain.from_iterable(tails))}
    suffixes = {tuple(map(shifted.__getitem__, tail)) for tail in tails}
    return language, DiagramSet(language, frozenset(suffixes))


@record
class FullTree:
    """The intensional tree of all arity-disciplined diagrams over a language.

    The tree has unbounded depth since every arity carries a symbol;
    membership and child enumeration stay finite at every node.
    """

    language: Language

    def allows(self, w: Diagram) -> bool:
        return all(
            sym.arity == pos and self.language.has_symbol(sym)
            for pos, sym in enumerate(w, start=1)
        )

    def children(self, w: Diagram) -> tuple[Diagram, ...]:
        return tuple(w + (sym,) for sym in self.language.symbols(len(w) + 1))


def full_tree_set(language: Language, depth: int) -> DiagramSet:
    """The extensional truncation of the full tree at a given depth."""
    members: set[Diagram] = {EMPTY_DIAGRAM}
    frontier: list[Diagram] = [EMPTY_DIAGRAM]
    while frontier:
        w = frontier.pop()
        if len(w) >= depth:
            continue
        for sym in language.symbols(len(w) + 1):
            child = w + (sym,)
            members.add(child)
            frontier.append(child)
    return DiagramSet(language, frozenset(members))


# -- JSON interchange -------------------------------------------------------

def language_to_json(lang: Language) -> dict:
    out: dict = {"arities": {str(a): c for a, c in lang.counts}}
    if lang.repeat:
        out["repeat"] = True
    return out


def _whole(value) -> int:
    """``int(value)``, refused with TypeError unless equal to ``value``: 1.5 and "1" are refused."""
    n = int(value)
    if n != value:
        raise TypeError(f"{value!r} is not an integer")
    return n


def _arity_key(key: str) -> int:
    """The arity an ``arities`` key names; only the text ``str`` writes is read ("1_0" and "01" are refused)."""
    try:
        arity = int(key)
    except ValueError:
        arity = None
    if arity is None or str(arity) != key:
        raise ValueError(f"arity key {key!r} is not the decimal text of an integer")
    return arity


def language_from_json(data: dict) -> Language:
    """Read a language; ``repeat`` must be a JSON boolean when given, and each arity key an integer's text."""
    try:
        counts = {_arity_key(a): _whole(c) for a, c in data["arities"].items()}
    except OverflowError as e:
        raise ValueError(str(e)) from None
    repeat = data.get("repeat", False)
    if not isinstance(repeat, bool):
        raise ValueError(f"'repeat' must be true or false, not {repeat!r}")
    return Language.of(counts, repeat)


def diagram_to_json(w: Diagram) -> list:
    return [[sym.arity, sym.id] for sym in w]


def _pair(pair: list) -> list:
    if not isinstance(pair, list):
        raise TypeError(f"pair {pair!r} is not a list")
    if len(pair) != 2:
        raise TypeError(f"pair {pair!r} has length {len(pair)}, not 2")
    return pair


def diagram_from_json(data: list) -> Diagram:
    """Read a diagram; anything but a list of [arity, id] pairs raises ValueError."""
    try:
        if not hasattr(data, "__iter__"):
            raise TypeError(f"diagram {data!r} is not a list")
        return tuple(RelSymbol(_whole(a), _whole(i)) for a, i in map(_pair, data))
    except TypeError as e:
        raise ValueError(f"a diagram is a list of [arity, id] pairs ({e})") from None
    except OverflowError as e:
        raise ValueError(str(e)) from None


def diagram_key(w: Diagram) -> str:
    """Canonical string key for a diagram, used in JSON maps: its compact JSON text."""
    return "[" + ",".join([f"[{a},{i}]" for a, i in w]) + "]"


def _diagram_keys(members: Iterable[Diagram]) -> dict[Diagram, str]:
    """The ``diagram_key`` of each diagram, shortest first.

    A diagram whose parent (all its symbols but the last) is given too, as
    in a prefix-closed set, gets its key by growing the parent's key with
    its last symbol's text, written once per symbol; any other gets
    ``diagram_key``.
    """
    keys: dict[Diagram, str] = {}
    texts: dict[RelSymbol, str] = {}
    for w in sorted(members, key=len):
        parent = keys.get(w[:-1]) if w else None
        if parent is None:
            keys[w] = diagram_key(w)
            continue
        text = texts.get(w[-1])
        if text is None:
            text = texts[w[-1]] = diagram_key(w[-1:])[1:-1]
        keys[w] = parent[:-1] + ("," if len(w) > 1 else "") + text + "]"
    return keys


def diagram_set_to_json(ds: DiagramSet) -> dict:
    """The JSON object of a diagram set, each distinct symbol one shared ``[arity, id]`` list."""
    pairs = {sym: [sym.arity, sym.id] for sym in set(chain.from_iterable(ds.members))}
    out = language_to_json(ds.language)
    out["members"] = [list(map(pairs.__getitem__, m)) for m in ds.sorted_members]
    return out


def _read_members(raw) -> frozenset[Diagram]:
    """The members of a diagram set's JSON, one RelSymbol per distinct [arity, id] pair.

    Symbols are looked up by their raw pair. A RelSymbol is a tuple of its
    ints, so a pair equal to it (``1``, ``1.0`` and ``True`` compare and
    hash alike, and ``int`` maps them alike) finds it. A member whose pairs
    are not all found, or are not plain hashable pairs, is read by
    ``diagram_from_json``, which raises what it would raise on its own,
    and its symbols are added.

    In canonical order every nonempty member's parent is a prefix of the
    member read just before it, so a member whose pairs but the last equal
    that one's first pairs reuses its diagram's prefix and looks up its last
    pair alone. Those pairs were read already and so would all be found; any
    other member is read pair by pair, as above.
    """
    symbols: dict[tuple, RelSymbol] = {}
    members = []
    previous, w = [], ()  # the member read last, raw and as a diagram
    for m in raw:
        try:
            k = len(m) - 1
            reuse = k >= 0 and m[:k] == previous[:k]
        except (KeyError, TypeError):  # m or the last member has no length or takes no slice
            reuse = False
        try:
            if reuse:
                a, i = m[k]
                w = w[:k] + (symbols[a, i],)
            else:
                w = tuple([symbols[a, i] for a, i in m])
        except (KeyError, TypeError, ValueError):
            w = tuple([symbols.setdefault(sym, sym) for sym in diagram_from_json(m)])
        members.append(w)
        previous = m
    return frozenset(members)


def diagram_set_from_json(data: dict) -> DiagramSet:
    """Read a diagram set; bad shapes raise ValueError."""
    try:
        language = language_from_json(data)
        members = _read_members(data["members"])
    except KeyError as e:
        raise ValueError(f"missing key {e}") from None
    except (TypeError, AttributeError) as e:
        raise ValueError(
            f"a diagram set is {{'arities': {{arity: count}}, 'members': [diagram, ...]}} ({e})"
        ) from None
    return DiagramSet(language, members)
