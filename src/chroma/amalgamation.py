"""Special two-extension systems and complete desk-scale amalgamation solvers.

A special system is a pair of one-point extension colorings of a common
base that agree on the base. Disjoint amalgamation for models of a given
size reduces to extending every such system to a coloring of the union, so
the solvers here work on systems directly: a complete backtracking search
(``dap_search``), the identification-or-search split (``ap_search``), the
three-case constructive amalgamator (``dap_from_ap``), two direct
constructions that bypass search, and a spectra scanner.

Search order is fixed for reproducibility: missing subsets are colored by
increasing size and then lexicographically, candidate symbols by id (sampled
mode shuffles each subset's candidates, with exactly the draws
``random.Random.shuffle`` makes), and a branch dies as soon as a freshly
decided monochromatic subset has a diagram outside the allowed set.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, count, groupby
from operator import itemgetter
from typing import Callable, Iterator, Optional

from . import rank
from ._record import record, replace
from .diagrams import Diagram, DiagramSet, Language, RelSymbol, quotient
from .structures import (
    ColoringStructure,
    Subset,
    _one_smaller,
    _subsets,
    canonical_subsets,
    in_class,
    is_substructure,
    monochromatic_table,
    restrict,
    validate_structure,
)


class InvalidSystemError(ValueError):
    """The input system breaks an invariant (shape, agreement, or membership)."""


class HypothesesError(ValueError):
    """The finite-surrogate hypotheses of the constructive amalgamator fail."""


class BudgetExhausted(Exception):
    """Internal signal: the node budget ran out mid-search."""


@record
class SpecialSystem:
    """Two one-point extension colorings of a common base.

    ``c1`` colors the base plus ``a1`` and ``c2`` the base plus ``a2``; the
    two must agree on every subset of the base.
    """

    x: tuple[int, ...]
    a1: int
    a2: int
    c1: ColoringStructure
    c2: ColoringStructure


def validate_system(sys: SpecialSystem, family) -> None:
    """Raise InvalidSystemError unless all system invariants hold.

    Both extensions must also belong to the class of ``family``, as ``_numbered``
    decides, which leaves on each side the numbers its search starts from. The
    system keeps ``family`` as its mark, so a later call for the same object
    returns at once. This assumes, as those numbers do, that no one recolors a
    validated system's sides.
    """
    if vars(sys).get("_validated") is family:
        return
    if sys.a1 == sys.a2:
        raise InvalidSystemError("the two fresh points must differ")
    if sys.a1 in sys.x or sys.a2 in sys.x:
        raise InvalidSystemError("fresh points may not lie in the base")
    if tuple(sorted(set(sys.x))) != sys.x:
        raise InvalidSystemError("base must be sorted and duplicate-free")
    for label, c, a in (("first", sys.c1, sys.a1), ("second", sys.c2, sys.a2)):
        expected = tuple(sorted(sys.x + (a,)))
        if c.universe != expected:
            raise InvalidSystemError(f"{label} coloring must cover the base plus its point")
        validate_structure(c)
    for subset in canonical_subsets(sys.x):
        if sys.c1.colors[subset] != sys.c2.colors[subset]:
            raise InvalidSystemError(f"colorings disagree on base subset {subset}")
    table = _diagram_numbers(family)
    for label, c in (("first", sys.c1), ("second", sys.c2)):
        _numbered(c, family, table, label)
    vars(sys)["_validated"] = family


@record
class RefutationBranch:
    """Why one candidate color of the first missing subset cannot work."""

    color: RelSymbol
    violating_subset: Subset
    diagram: Diagram


@record
class AmalgamResult:
    status: str  # witness | identification | unsat | budget-exhausted
    method: str  # search | case1 | case2 | case3 | infinite-diagram | quotient
    witness: Optional[ColoringStructure] = None
    identified: Optional[dict] = None
    refutation: tuple[RefutationBranch, ...] = ()
    nodes: int = 0

    def __bool__(self) -> bool:
        return self.status in ("witness", "identification")


def _diagram_numbers(family) -> tuple[list[Diagram], list[dict]]:
    """The table that numbers the diagrams of ``family``, kept on the family object.

    Number 0 is the empty diagram. A diagram the family allows gets its own
    number k and a forbidden one the marker ~k (negative), with the diagram
    itself at position k of the first list. Position k of the second list
    maps a symbol to the number or marker of the diagram k extended by it,
    filled by ``_child`` the first time it is asked, so ``family.allows`` is
    called once per diagram. Every search on one family object reuses its
    table, which lives as long as the family; an object that takes no
    attributes gets a fresh table each time.
    """
    try:
        return vars(family).setdefault("_diagram_numbers", ([()], [{}]))
    except TypeError:
        return [()], [{}]


def _child(table: tuple[list[Diagram], list[dict]], number: int, symbol, allows) -> int:
    """The number or forbidden marker of diagram ``number`` extended by ``symbol``, recorded."""
    diagrams, children = table
    diagram = diagrams[number] + (symbol,)
    code = children[number][symbol] = len(diagrams) if allows(diagram) else ~len(diagrams)
    diagrams.append(diagram)
    children.append({})
    return code


def _common(codes: list, keys: tuple[int, ...]) -> Optional[int]:
    """The number shared by the positions ``keys``, or None if they differ or any is None."""
    common = codes[keys[0]]
    if common is not None:
        for j in keys:
            if codes[j] != common:
                return None
    return common


@cache
def _candidates(language: Language, n: int) -> tuple[tuple, tuple]:
    """The symbols of each lattice position on n points, and their shuffle steps (see ``solutions``)."""
    by_size = [tuple(language.symbols(size)) for size in range(n + 1)]
    steps = [tuple((k, (k + 1).bit_length()) for k in range(len(b) - 1, 0, -1)) for b in by_size]
    sizes = [len(below) for below in _one_smaller(n)]
    return tuple(by_size[k] for k in sizes), tuple(steps[k] for k in sizes)


def _number(
    universe: tuple[int, ...], color: Callable, table: tuple, allows: Callable
) -> tuple[list, list[int], Optional[Subset]]:
    """Number the lattice of a sorted ``universe`` from ``color``, None where uncolored.

    Gives each lattice position's diagram number, None where uncolored or not
    monochromatic; the uncolored positions; and the first subset, in the
    canonical order, monochromatic with a diagram ``allows`` refuses, where
    the walk stops (the subset ``in_class`` reports), or None.
    """
    smaller, children = _one_smaller(len(universe)), table[1]
    codes = [0] + [None] * (len(smaller) - 1)
    uncolored: set[int] = set()
    for i, subset in enumerate(canonical_subsets(universe), 1):
        symbol = color(subset)
        if symbol is None:
            uncolored.add(i)
            continue
        if not uncolored.isdisjoint(smaller[i]):
            raise InvalidSystemError("preset region is not closed under subsets")
        common = _common(codes, smaller[i])
        if common is None:
            continue
        code = children[common].get(symbol)
        if code is None:
            code = _child(table, common, symbol, allows)
        if code < 0:
            return codes, sorted(uncolored), subset
        codes[i] = code
    return codes, sorted(uncolored), None


def _numbered(m: ColoringStructure, family, table: tuple, label: str) -> tuple:
    """The numbers of the total ``m``, walked anew and kept on it with the family; raises unless in class."""
    codes, _, forbidden = _number(m.universe, m.colors.get, table, family.allows)
    if forbidden is not None:
        raise InvalidSystemError(f"{label} coloring leaves the class at subset {forbidden}")
    vars(m)["_codes"] = family, table, codes
    return codes


@cache
def _join(*universes: tuple[int, ...]) -> tuple[Callable, tuple[int, ...]]:
    """How a search on the union of sides on ``universes`` takes their numbers.

    Each side lacks one point of the union, wherever it sorts, or a lone side
    one point after it; a subset takes the number of the first side holding it.
    Gives a getter of every position's number from the sides' numbers joined
    and followed by None, and the positions no side holds, left to search.
    """
    union = sorted(set().union(*universes))
    n = len(universes[0]) + 1
    side = {subset: j for j, subset in enumerate(_subsets(tuple(range(n - 1))))}
    omitted = [next((r for r, p in enumerate(union) if p not in u), n - 1) for u in universes]
    left = len(omitted) * len(side)

    def source(subset: Subset) -> int:
        for k, r in enumerate(omitted):
            if r not in subset:
                return k * len(side) + side[tuple(p - (p > r) for p in subset)]
        return left

    sources = [source(subset) for subset in _subsets(tuple(range(n)))]
    return itemgetter(*sources), tuple(i for i, j in enumerate(sources) if j == left)


def _start(family, *sides: ColoringStructure) -> tuple[tuple, list, tuple[int, ...]]:
    """The ``start`` of a search on the union of ``sides``, from their numbers (see ``_join``).

    A side's numbers are the ``(family, table, numbers)`` kept on it. The
    search takes the table of the first side numbered for ``family``, or
    else the one ``_diagram_numbers`` gives, so a family that takes no
    attributes reuses its sides' table too; only a side numbered from
    another table is numbered again, from this one.
    """
    kept = [vars(side).get("_codes", (None, None, None)) for side in sides]
    table = next((t for f, t, _ in kept if f is family), None)
    if table is None:
        table = _diagram_numbers(family)
    numbers = []
    for side, (_, t, codes) in zip(sides, kept):
        numbers += codes if t is table else _numbered(side, family, table, "a side's")
    numbers.append(None)
    gather, missing = _join(*[side.universe for side in sides])
    return table, list(gather(numbers)), missing


class CompletionSearch:
    """Backtracking completion of a partial coloring to a class member.

    The preset region must be closed under subsets; the remaining subsets
    are assigned in (size, lex) order. Monochromaticity of a subset is
    decided the moment its own color lands, because all smaller subsets are
    colored by then, so pruning needs exactly one diagram check per node.
    A set is monochromatic exactly when its one-smaller subsets are all
    monochromatic with one common diagram; the search keeps one diagram
    number (see ``_diagram_numbers``) or None per lattice position, finds
    that common number once per subset it enters, and then decides each
    candidate color by one table lookup. The search walks an explicit
    stack, so its depth is not bounded by Python's recursion limit.

    ``start``, when given, is the family table, the number of every lattice
    position and the positions left to search (see ``_start``); the preset
    is then not walked.
    """

    def __init__(
        self,
        universe,
        preset: dict[Subset, RelSymbol],
        language: Language,
        family,
        budget: Optional[int] = None,
        rng: Optional[random.Random] = None,
        first_only: bool = False,
        start: Optional[tuple[tuple, list, tuple[int, ...]]] = None,
    ):
        self.universe = tuple(sorted(universe))
        self.language = language
        self.family = family
        self.budget = budget
        self.rng = rng
        # A subset is don't-care when its one-smaller subsets are not all
        # monochromatic with one common diagram: then it is not monochromatic
        # whatever its color, which changes no diagram. With ``first_only``,
        # such a subset takes only its first symbol, so the solutions are the
        # canonical-first members of the classes of completions that differ
        # only there.
        self.first_only = first_only
        self.nodes = 0
        self.branch_failures: dict[RelSymbol, tuple[Subset, Diagram]] = {}

        self._subsets = _subsets(self.universe)
        self._smaller = _one_smaller(len(self.universe))
        self._symbols, self._steps = _candidates(language, len(self.universe))
        if start is None:
            table = _diagram_numbers(family)
            codes, missing, forbidden = _number(self.universe, preset.get, table, family.allows)
            if forbidden is not None:
                raise InvalidSystemError(
                    f"preset subset {forbidden} is monochromatic with forbidden diagram"
                )
            start = table, codes, missing
        # Diagram number of each subset by lattice position, None where it is
        # not monochromatic; entries past the preset region are written by
        # the search before any superset reads them.
        self._table, self._numbers, self._missing = start
        self.missing = [self._subsets[i] for i in self._missing]

    def solutions(self) -> Iterator[dict[Subset, RelSymbol]]:
        """All completions, lazily, in deterministic order (unless shuffled).

        While a completion is yielded, ``codes`` holds the number of every
        lattice position under it.
        """
        missing, subsets, smaller = self._missing, self._subsets, self._smaller
        self.codes = codes = list(self._numbers)
        n = len(missing)
        if n == 0:
            yield {}
            return
        symbols, steps = self._symbols, self._steps
        rng, first_only = self.rng, self.first_only
        if rng is None:
            steps = [()] * len(steps)
        else:
            # The draws of random.Random.shuffle on a position's symbols: its
            # Fisher-Yates loop swaps position k, from the last down to 1, with
            # a position j drawn by _randbelow(k + 1), a (k + 1).bit_length()-bit
            # number redrawn while above k. Shuffling one symbol draws nothing.
            getrandbits = rng.getrandbits

        def candidates(i: int) -> Iterator[RelSymbol]:
            if not steps[i]:
                return iter(symbols[i])
            shuffled = list(symbols[i])
            for k, bits in steps[i]:
                j = getrandbits(bits)
                while j > k:
                    j = getrandbits(bits)
                shuffled[k], shuffled[j] = shuffled[j], shuffled[k]
            return iter(shuffled)

        table = self._table
        diagrams, children = table
        allows = self.family.allows
        failures = self.branch_failures
        limit = self.budget if self.budget is not None else float("inf")
        chosen: list[Optional[RelSymbol]] = [None] * n
        # The common diagram number of each depth's one-smaller subsets.
        commons: list[Optional[int]] = [_common(codes, smaller[missing[0]])] + [None] * (n - 1)
        stack = [candidates(missing[0])]
        nodes = self.nodes
        try:
            while stack:
                depth = len(stack) - 1
                i = missing[depth]
                common = commons[depth]
                below = None if common is None else children[common]
                for color in stack[-1]:
                    nodes += 1
                    if nodes > limit:
                        raise BudgetExhausted
                    if below is None:
                        code = None
                        if first_only:
                            stack[-1] = iter(())
                    else:
                        code = below.get(color)
                        if code is None:
                            code = _child(table, common, color, allows)
                        if code < 0:
                            root = chosen[0] if depth else color
                            if root not in failures:
                                failures[root] = (subsets[i], diagrams[~code])
                            continue
                    codes[i] = code
                    chosen[depth] = color
                    if depth + 1 < n:
                        k = missing[depth + 1]
                        commons[depth + 1] = _common(codes, smaller[k])
                        stack.append(candidates(k))
                    else:
                        self.nodes = nodes
                        yield dict(zip(self.missing, chosen))
                    break
                else:
                    stack.pop()
        finally:
            self.nodes = nodes

    def first_solution(self) -> Optional[dict[Subset, RelSymbol]]:
        return next(self.solutions(), None)


def _system_universe(sys: SpecialSystem) -> tuple[int, ...]:
    return tuple(sorted(sys.x + (sys.a1, sys.a2)))


def _system_preset(sys: SpecialSystem) -> dict[Subset, RelSymbol]:
    return {**sys.c1.colors, **sys.c2.colors}


@cache
def _through(x: tuple[int, ...], a: int) -> Callable:
    """A getter of the colors of the sets ``c + (a,)`` for the subsets c of ``x``, in canonical order."""
    return itemgetter(*(tuple(sorted(c + (a,))) for c in canonical_subsets(x, 0)))


def _agreement_holds(sys: SpecialSystem) -> bool:
    """Whether the two sides agree on every set through their fresh points."""
    return _through(sys.x, sys.a1)(sys.c1.colors) == _through(sys.x, sys.a2)(sys.c2.colors)


def dap_search(sys: SpecialSystem, family, budget: Optional[int] = None) -> AmalgamResult:
    """Complete search for a class coloring of the union extending both sides.

    Returns a witness, an exhaustively verified refutation with one
    violating monochromatic subset per candidate branch, or a
    budget-exhausted report.
    """
    validate_system(sys, family)
    return _search_system(sys, family, budget)


def ap_search(sys: SpecialSystem, family, budget: Optional[int] = None) -> AmalgamResult:
    """Identification amalgam when both extensions match pointwise, else search.

    When the two extensions agree on every set through their fresh points,
    mapping both points to one element makes the first extension itself the
    amalgam. Otherwise the points must stay distinct and the disjoint
    search decides the instance.
    """
    validate_system(sys, family)
    if _agreement_holds(sys):
        return AmalgamResult(
            "identification",
            "search",
            witness=sys.c1,
            identified={"a1": sys.a1, "a2": sys.a2, "as": sys.a1},
        )
    return _search_system(sys, family, budget)


def _system_search(sys: SpecialSystem, family, budget: Optional[int]) -> CompletionSearch:
    """The disjoint search on a system known to pass ``validate_system``, from its sides' numbers."""
    start = _start(family, sys.c1, sys.c2)
    return CompletionSearch(_system_universe(sys), {}, family.language, family, budget, start=start)


def _search_system(sys: SpecialSystem, family, budget: Optional[int]) -> AmalgamResult:
    """The result of ``_system_search``."""
    return _first_completion(_system_search(sys, family, budget), sys.c1.colors, sys.c2.colors)


def _first_completion(search: CompletionSearch, *presets: dict[Subset, RelSymbol]) -> AmalgamResult:
    """The first solution of ``search``, which extends ``presets``, as a search result.

    Gives the witness, an unsat result carrying one refuted branch per
    candidate color of the first missing subset, or a budget-exhausted one.
    """
    try:
        solution = search.first_solution()
    except BudgetExhausted:
        return AmalgamResult("budget-exhausted", "search", nodes=search.nodes)
    if solution is None:
        branches = tuple(
            RefutationBranch(color, subset, diag)
            for color, (subset, diag) in search.branch_failures.items()
        )
        return AmalgamResult("unsat", "search", refutation=branches, nodes=search.nodes)
    colors = {subset: color for part in (*presets, solution) for subset, color in part.items()}
    witness = ColoringStructure(search.universe, colors)
    return AmalgamResult("witness", "search", witness=witness, nodes=search.nodes)


def check_amalgamator_hypotheses(ds: DiagramSet, base_size: int) -> None:
    """Raise HypothesesError unless the constructive amalgamator can run.

    Needs more than one symbol at every arity from 2 up to twice the base
    size plus four, and a pair of extensions with distinct top symbols at a
    common level above every length-1 member.
    """
    for k in range(2, 2 * base_size + 5):
        if ds.language.count(k) < 2:
            raise HypothesesError(f"need at least two symbols of arity {k}")
    tops: dict[tuple[RelSymbol, int], RelSymbol] = {}
    split: set[RelSymbol] = set()
    for u in ds.members:
        if len(u) > 1 and tops.setdefault((u[0], len(u)), u[-1]) != u[-1]:
            split.add(u[0])
    for w in sorted(ds.level(1)):
        if w[0] not in split:
            raise HypothesesError(f"no splitting extensions above {w}")


def dap_from_ap(sys: SpecialSystem, ds: DiagramSet, budget: Optional[int] = None) -> AmalgamResult:
    """Build a disjoint amalgam by case split, searching within ``budget`` nodes.

    Case 1: the extensions disagree somewhere over the base, so they cannot
    be identified and any amalgam the disjoint search finds already keeps
    the fresh points apart. Case 2: some allowed extension of the fresh
    point's diagram is realized by no monochromatic set on the first side,
    and coloring the joint sets along it blocks monochromaticity above its
    level. Case 3: every allowed extension is realized; recolor one
    oversized set through the first fresh point to force a disagreement,
    solve by case 1, and restore the color.
    """
    validate_system(sys, ds)
    check_amalgamator_hypotheses(ds, len(sys.x))

    if not _agreement_holds(sys):
        result = _search_system(sys, ds, budget)
        if result.status == "witness":
            return replace(result, method="case1")
        return result

    mono = monochromatic_table(sys.c1)
    extensions = _point_extensions(sys, ds)

    # Case 2: an allowed extension no set realizes, smallest level first.
    realized = set(mono.values())
    w = next((u for u in extensions if u not in realized), None)
    if w is not None:
        return _joint_witness(
            sys, ds, "case2",
            lambda c: w[len(c) + 1] if len(c) + 1 < len(w) else RelSymbol(len(c) + 2, 0),
        )

    # Case 3: every allowed extension is realized somewhere on the first side.
    anchor = _case3_anchor(sys, extensions, mono)
    if anchor is None:
        raise HypothesesError(
            "every extension is realized but none by sets through the fresh point"
        )
    n, b1, b2 = anchor
    # The hypotheses give two symbols at every arity up to 2|x|+4, so 2n,
    # the least arity above the 2n-1 points of the core, has a second one.
    k = 2 * n
    if k > len(sys.x) + 1:
        raise HypothesesError(
            f"no arity above {2 * n - 1} fits inside a base of size {len(sys.x)}"
        )
    core = tuple(sorted({sys.a1, *b1, *b2}))
    fillers = [p for p in sorted(sys.x) if p not in core]
    target = tuple(sorted(core + tuple(fillers[: k - len(core)])))
    old_color = sys.c1.colors[target]
    new_color = next(s for s in ds.language.symbols(k) if s != old_color)
    recolored = dict(sys.c1.colors)
    recolored[target] = new_color
    c1_prime = ColoringStructure(sys.c1.universe, recolored)
    try:  # the search's start walks c1_prime once, which decides its membership
        result = _search_system(SpecialSystem(sys.x, sys.a1, sys.a2, c1_prime, sys.c2), ds, budget)
    except InvalidSystemError as e:
        raise RuntimeError(f"recolored side: {e}; this is a bug") from None
    if result.status != "witness":
        return result
    final_colors = dict(result.witness.colors)
    final_colors[target] = old_color
    witness = ColoringStructure(_system_universe(sys), final_colors)
    _require_member(witness, ds, "case 3 amalgam")
    return AmalgamResult("witness", "case3", witness=witness)


def _point_extensions(sys: SpecialSystem, ds: DiagramSet) -> list[Diagram]:
    """The members longer than 1 that start with the first fresh point's color, by length."""
    point = sys.c1.colors[(sys.a1,)]
    extensions = [u for u in ds.members if len(u) > 1 and u[0] == point]
    return sorted(extensions, key=lambda u: (len(u), u))


def _case3_anchor(
    sys: SpecialSystem, extensions: list[Diagram], mono: dict[Subset, Optional[Diagram]]
) -> Optional[tuple[int, Subset, Subset]]:
    """A level with two realized extensions splitting at their last symbol.

    Gives the level and the base parts of the two realizations. Realizations
    must pass through the fresh point so that removing it leaves base subsets.
    """
    through_point: dict[Diagram, Subset] = {}
    for subset, diag in sorted(mono.items()):
        if diag is not None and sys.a1 in subset:
            through_point.setdefault(diag, tuple(p for p in subset if p != sys.a1))
    realized = (u for u in extensions if u in through_point)
    for n, level in groupby(realized, key=len):
        for w1, w2 in combinations(level, 2):
            if w1[-1] != w2[-1]:
                return n, through_point[w1], through_point[w2]
    return None


def _require_member(m: ColoringStructure, family, what: str) -> None:
    report = in_class(m, family)
    if not report:
        raise RuntimeError(
            f"{what} left the class at {report.violating_subset}; this is a bug"
        )


def _joint_witness(
    sys: SpecialSystem, family, method: str, color: Callable[[Subset], RelSymbol]
) -> AmalgamResult:
    """The amalgam of a system that colors each joint set ``c + {a1, a2}`` with ``color(c)``.

    Base subsets ``c`` are taken in canonical order from the empty set; the
    amalgam must land in the class.
    """
    colors = _system_preset(sys)
    for c in canonical_subsets(sys.x, 0):
        colors[tuple(sorted(c + (sys.a1, sys.a2)))] = color(c)
    witness = ColoringStructure(_system_universe(sys), colors)
    _require_member(witness, family, f"{method} amalgam")
    return AmalgamResult("witness", method, witness=witness)


def amalgamate_infinite(
    sys: SpecialSystem, family, d: Optional[rank.InfiniteDiagram] = None
) -> AmalgamResult:
    """Amalgamate along an infinite diagram.

    With distinct singleton colors no joint set can be monochromatic and
    the joint colors are free (canonically symbol id 0). With matching
    singleton colors the sets through both fresh points follow d at their
    size, so d must start at the common color and be allowed deep enough.
    """
    validate_system(sys, family)
    c1_point = sys.c1.colors[(sys.a1,)]
    if c1_point != sys.c2.colors[(sys.a2,)]:
        return _joint_witness(sys, family, "infinite-diagram", lambda c: RelSymbol(len(c) + 2, 0))
    if d is None:
        raise ValueError("matching singleton colors require an infinite diagram")
    if d(1) != c1_point:
        raise ValueError("the diagram must start at the common singleton color")
    if not rank.infinite_diagram_consistent(family, d, len(sys.x) + 2):
        raise ValueError("the diagram is not allowed to the required depth")
    return _joint_witness(sys, family, "infinite-diagram", lambda c: d(len(c) + 2))


def amalgamate_quotient(
    sys: SpecialSystem,
    ds: DiagramSet,
    stem: Diagram,
    cstar: ColoringStructure,
) -> AmalgamResult:
    """Amalgamate through a length-2 stem and a quotient-class coloring.

    The joint pair takes the stem's top color and every larger joint set
    takes the quotient coloring of its base part, shifted back up by two.
    """
    validate_system(sys, ds)
    c1_point = sys.c1.colors[(sys.a1,)]
    if sys.c2.colors[(sys.a2,)] != c1_point:
        raise ValueError("quotient amalgamation needs matching singleton colors")
    if len(stem) != 2 or stem not in ds.members:
        raise ValueError("the stem must be a length-2 member")
    if stem[0] != c1_point:
        raise ValueError("the stem must start at the common singleton color")
    _, quotient_set = quotient(ds, stem)
    if cstar.universe != sys.x:
        raise ValueError("the quotient coloring must cover exactly the base")
    validate_structure(cstar)
    report = in_class(cstar, quotient_set)
    if not report:
        raise ValueError(f"the quotient coloring leaves its class at {report.violating_subset}")
    return _joint_witness(
        sys, ds, "quotient", lambda c: RelSymbol(len(c) + 2, cstar.colors[c].id) if c else stem[1]
    )


def amalgamate_triple(
    m1: ColoringStructure,
    m2: ColoringStructure,
    m3: ColoringStructure,
    family,
    budget: Optional[int] = None,
) -> AmalgamResult:
    """Convenience wrapper: amalgamate a nested triple point by point.

    Adds the points of the third structure beyond the base in id order,
    completing the coloring after each step. Steps do not backtrack across
    each other, so an unsat outcome here is not a refutation.
    """
    shared = set(m2.universe) & set(m3.universe)
    if shared != set(m1.universe):
        raise InvalidSystemError("the outer universes must overlap exactly in the base")
    if not (is_substructure(m1, m2) and is_substructure(m1, m3)):
        raise InvalidSystemError("the base must be a substructure of both outer structures")
    current = m2
    kept = list(m1.universe)
    total_nodes = 0
    for b in sorted(set(m3.universe) - set(m1.universe)):
        part = restrict(m3, set(kept) | {b})
        universe = tuple(sorted(set(current.universe) | {b}))
        preset = {**current.colors, **part.colors}
        step = _first_completion(
            CompletionSearch(universe, preset, family.language, family, budget), preset
        )
        total_nodes += step.nodes
        if step.status != "witness":
            return AmalgamResult(step.status, "search", nodes=total_nodes)
        current = step.witness
        kept.append(b)
    return AmalgamResult("witness", "search", witness=current, nodes=total_nodes)


# -- system enumeration and spectra ------------------------------------------

def _completions(
    universe: tuple[int, ...],
    preset: dict[Subset, RelSymbol],
    family,
    budget: Optional[int],
    rng: Optional[random.Random] = None,
    first_only: bool = False,
    start: Optional[tuple[tuple, list, tuple[int, ...]]] = None,
) -> Iterator[ColoringStructure]:
    """The class colorings of a sorted universe that extend ``preset``, in search order.

    With ``first_only``, only the first of each don't-care class (see
    ``CompletionSearch``). Each coloring carries the diagram numbers of its
    lattice, so that a later search can start from them (see ``_start``).
    """
    search = CompletionSearch(
        universe, preset, family.language, family, budget, rng, first_only, start
    )
    for solution in search.solutions():
        coloring = ColoringStructure(universe, {**preset, **solution})
        vars(coloring)["_codes"] = family, search._table, list(search.codes)
        yield coloring


def enumerate_extensions(
    base: ColoringStructure, point: int, family, budget: Optional[int] = None
) -> Iterator[ColoringStructure]:
    """All class colorings of the base universe plus one point, canonically ordered."""
    return _completions(tuple(sorted(set(base.universe) | {point})), base.colors, family, budget)


def enumerate_bases(size: int, family, budget: Optional[int] = None) -> Iterator[ColoringStructure]:
    """All class colorings of {0..size-1}, canonically ordered."""
    return _completions(tuple(range(size)), {}, family, budget)


def enumerate_special_systems(
    size: int, family, budget: Optional[int] = None, first_only: bool = False
) -> Iterator[SpecialSystem]:
    """All special systems over base {0..size-1}, fresh points size and size+1.

    Unordered pairs are produced once, with the first extension never later
    than the second in the canonical extension order. Both fresh points sort
    after the base, so a search at ``a2`` would find the extensions at ``a1``
    with ``a1``, the last point of every set through it, renamed, in the same
    order and with colors in the same order; one search serves both.

    With ``first_only``, only the canonical-first system of each don't-care
    class is yielded, in the same order: bases and extensions take the first
    symbol at every don't-care subset (see ``CompletionSearch``). Systems that
    differ only there have the same monochromatic tables and so the same DAP
    status.
    """
    x, a1, a2 = tuple(range(size)), size, size + 1
    for base in _completions(x, {}, family, budget, first_only=first_only):
        start = _start(family, base)
        firsts = list(_completions(x + (a1,), base.colors, family, budget, None, first_only, start))
        # Renaming the last point keeps every lattice position, so each
        # second extension carries its first's diagram numbers.
        seconds = []
        for c in firsts:
            colors = {(s[:-1] + (a2,) if s[-1] == a1 else s): v for s, v in c.colors.items()}
            seconds.append(ColoringStructure(x + (a2,), colors))
            vars(seconds[-1])["_codes"] = vars(c)["_codes"]
        for i, c1 in enumerate(firsts):
            for c2 in seconds[i:]:
                yield SpecialSystem(x, a1, a2, c1, c2)


def sample_special_system(
    size: int, family, rng: random.Random, budget: Optional[int] = None
) -> Optional[SpecialSystem]:
    """One random special system, or None when the class has no base of this size."""
    x, a1, a2 = tuple(range(size)), size, size + 1
    base = next(_completions(x, {}, family, budget, rng), None)
    if base is None:
        return None
    # Both extensions are drawn before either is checked, so a missing first
    # one still advances the random stream past the second.
    start = _start(family, base)
    c1, c2 = (
        next(_completions(x + (a,), base.colors, family, budget, rng, start=start), None)
        for a in (a1, a2)
    )
    if c1 is None or c2 is None:
        return None
    return SpecialSystem(x, a1, a2, c1, c2)


@record
class ScanEntry:
    dap: str  # yes | no | unknown
    ap: str
    dap_certificate: Optional[SpecialSystem] = None
    ap_certificate: Optional[SpecialSystem] = None


# The largest ``lam_max`` a scan takes. None computes past size LATTICE_LIMIT - 2,
# but an unbudgeted exhaustive scan copies its first empty size up to ``lam_max``.
SCAN_LIMIT = 1 << 16


def spectra_scan(
    family,
    lam_max: int,
    mode: str = "exhaustive",
    seed: int = 0,
    trials: int = 100,
    budget: Optional[int] = None,
) -> dict[int, ScanEntry]:
    """Per-size amalgamation verdicts from 0 up to ``lam_max``.

    Exhaustive mode sweeps every special system in canonical order, so a
    refuting system is the first one in that order; without a budget it
    sweeps one system per don't-care class, with the same verdicts and
    certificates. Sampled mode draws seeded random systems and can only ever
    answer no or unknown.
    """
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if lam_max > SCAN_LIMIT:
        raise ValueError(f"a scan up to size {lam_max} exceeds the limit of {SCAN_LIMIT}")
    # Budgets count enumeration nodes, so a budgeted scan enumerates every system.
    classes = mode == "exhaustive" and budget is None
    if mode == "sampled":
        import random  # only sampled scans draw, so exhaustive ones never load it
    table: dict[int, ScanEntry] = {}
    for lam in range(lam_max + 1):
        if mode == "exhaustive":
            systems, start = enumerate_special_systems(lam, family, budget, classes), "yes"
        else:
            rng = random.Random(seed * 1000003 + lam)
            systems, start = _sampled_systems(lam, family, rng, trials, budget), "unknown"
        drawn = count()  # zip advances it once per system drawn
        table[lam] = _scan((sys for sys, _ in zip(systems, drawn)), start, family, budget, classes)
        if classes and not next(drawn):
            # No system, and no budget: no class structure has lam + 1 points,
            # so no larger size has a base. Budgeted base searches may run out.
            table.update(dict.fromkeys(range(lam + 1, lam_max + 1), table[lam]))
            break
    return table


def _sampled_systems(
    lam: int, family, rng: random.Random, trials: int, budget: Optional[int]
) -> Iterator[SpecialSystem]:
    """The systems of ``trials`` draws, skipping draws that run out of budget or find none."""
    for _ in range(trials):
        try:
            sys = sample_special_system(lam, family, rng, budget)
        except BudgetExhausted:
            continue
        if sys is not None:
            yield sys


def _scan(
    systems: Iterator[SpecialSystem], start: str, family, budget: Optional[int], classes: bool = False
) -> ScanEntry:
    """Fold a stream of special systems into DAP and AP verdicts that begin at ``start``.

    The streams come from class-respecting searches, so their systems are not
    validated again. AP holds by identification when the sides agree through
    the fresh points and otherwise exactly when DAP does, as in ``ap_search``,
    so one ``_system_status`` search serves both and the first AP refutation,
    also a DAP one, ends the fold. Running out of budget leaves verdicts unknown.

    A ``first_only`` stream of ``enumerate_special_systems`` stands for every
    member of each class. An identified class whose sides can still be
    recolored apart refutes AP through its first such member, which the fold
    keeps until the stream passes it in canonical order, since an earlier
    refutation may follow.
    """
    dap = ap = start
    dap_cert = ap_cert = ap_order = None
    try:
        for sys in systems:
            if ap_cert is not None and (
                sys.c1 != ap_cert.c1 or _color_order(sys.c2) > ap_order
            ):
                break
            identified = _agreement_holds(sys)
            if identified and dap == "no" and not (classes and _recolored(sys, family)):
                continue
            status = _system_status(sys, family, budget)
            if status == "unsat":
                if dap != "no":
                    dap, dap_cert = "no", sys
                if not identified:
                    return ScanEntry(dap, "no", dap_cert, sys)
                if classes:
                    ap_cert = _recolored(sys, family)
                    ap_order = ap_cert and _color_order(ap_cert.c2)
            elif status == "budget-exhausted":
                dap = "no" if dap == "no" else "unknown"
                ap = ap if identified else "unknown"
    except BudgetExhausted:
        return ScanEntry("no" if dap == "no" else "unknown", "unknown", dap_cert)
    return ScanEntry(dap, "no" if ap_cert else ap, dap_cert, ap_cert)


def _system_status(sys: SpecialSystem, family, budget: Optional[int]) -> str:
    """The status alone of the disjoint search on a scan stream's system."""
    search = _system_search(sys, family, budget)
    try:
        return "unsat" if search.first_solution() is None else "witness"
    except BudgetExhausted:
        return "budget-exhausted"


def _color_order(c: ColoringStructure) -> list[RelSymbol]:
    """The colors of ``c`` in canonical subset order, which orders the extensions of one base."""
    return [c.colors[s] for s in canonical_subsets(c.universe)]


def _recolored(sys: SpecialSystem, family) -> Optional[SpecialSystem]:
    """The first system of an identified class whose sides differ, or None if there is none.

    That is ``c2`` with its last don't-care subset through ``a2`` that has a
    second symbol at its arity moved from the first symbol to the second.
    """
    count = family.language.count
    free = [
        s
        for s, diag in monochromatic_table(sys.c2).items()
        if diag is None and sys.a2 in s and count(len(s)) > 1
    ]
    if not free:
        return None
    colors = dict(sys.c2.colors)
    colors[free[-1]] = RelSymbol(len(free[-1]), 1)
    return replace(sys, c2=ColoringStructure(sys.c2.universe, colors))
