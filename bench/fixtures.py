"""Seeded fixture generator for the benchmark workloads.

Every input file the CLI sees is built here from the benchmark seed, with
the benchmark's own code: nothing is imported from ``chroma``, so a change
to the library cannot change the inputs it is measured on. The same
(workload, seed) pair always writes the same bytes.

Diagrams are tuples of ``(arity, id)`` pairs and colorings map sorted
subset tuples to ``(arity, id)`` pairs, mirroring the CLI's JSON formats.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import oracle

WORKLOADS = ("spectra-exhaustive", "spectra-sampled", "models", "ranks")

# Workloads whose outputs are pinned to digests recorded at a reference
# commit draw their inputs from a fixed pool of this many variants.
VARIANTS = 8

WARMUP_ARGV = ("rank", "--in", "one.json")


@dataclass(frozen=True)
class Op:
    """One CLI call: its arguments, relative to the fixture directory, and how to check it."""

    label: str
    argv: tuple[str, ...]
    kind: str
    ctx: dict = field(default_factory=dict)


# -- JSON writers -----------------------------------------------------------

def _dump(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, separators=(",", ":"), sort_keys=True) + "\n")


def family_json(counts: dict[int, int], members, repeat: bool = False) -> dict:
    out: dict = {"arities": {str(a): c for a, c in sorted(counts.items())}}
    if repeat:
        out["repeat"] = True
    out["members"] = [[list(s) for s in w] for w in sorted(members)]
    return out


def structure_json(universe, colors: dict) -> dict:
    return {
        "universe": list(universe),
        "colors": {oracle.subset_key(s): list(c) for s, c in sorted(colors.items())},
    }


def diagram_arg(w) -> str:
    return json.dumps([list(s) for s in w], separators=(",", ":"))


# -- families -----------------------------------------------------------------

def prefix_closure(diagrams) -> set:
    return {w[:k] for w in diagrams for k in range(len(w) + 1)}


def relabel(members, perms: dict[int, list[int]]) -> set:
    """Rename symbol ids arity by arity; the class is isomorphic, so every verdict is unchanged."""
    return {tuple((a, perms[a][i] if a in perms else i) for a, i in w) for w in members}


def random_perms(rng: random.Random, counts: dict[int, int]) -> dict[int, list[int]]:
    perms = {}
    for arity, count in sorted(counts.items()):
        ids = list(range(count))
        rng.shuffle(ids)
        perms[arity] = ids
    return perms


POSITIVE_COUNTS = {1: 2, 2: 2, 3: 2, 4: 2, 5: 2, 6: 2}  # with repeat: two symbols at every arity


def _grow(members: set, prefix: tuple, target: int, rng: random.Random) -> None:
    """Attach children below ``prefix`` so that its rank is exactly ``target``."""
    if target == 0:
        return
    arity = len(prefix) + 1
    ids = rng.sample(range(2), rng.randint(1, 2))
    for i, sid in enumerate(ids):
        child = prefix + ((arity, sid),)
        members.add(child)
        _grow(members, child, target - 1 if i == 0 else rng.randint(0, target - 1), rng)


def positive_tree(rng: random.Random) -> set:
    """Two heads of rank >= 3, each with both level-2 symbols.

    Head rank b+1 guarantees disjoint amalgamation up to base size b, so
    every spectra verdict up to lambda 2 must be yes. Giving each head both
    level-2 symbols is the split the constructive amalgamator needs.
    """
    members: set = {()}
    for head, rank in enumerate((3, rng.randint(3, 4))):
        w = ((1, head),)
        members.add(w)
        _grow(members, w, rank, rng)
        for sid in (0, 1):
            members.add(w + ((2, sid),))
    return members


def truncation(n_usable: int, max_arity: int, gamma: int) -> tuple[dict, set]:
    """The closed-form-rank fragment: indices strictly descend below a pinned head.

    Symbol ids are ``position * gamma + color``; the shape depends only on
    the number of usable indices, the arity cap and the color cap.
    """
    counts = {1: gamma}
    for n in range(2, max_arity + 1):
        counts[n] = n_usable * gamma
    members: set = {()}
    frontier = []
    for g in range(gamma):
        members.add(((1, g),))
        frontier.append((((1, g),), n_usable))
    while frontier:
        prefix, ceiling = frontier.pop()
        arity = len(prefix) + 1
        if arity > max_arity:
            continue
        for pos in range(ceiling):
            for g in range(gamma):
                child = prefix + ((arity, pos * gamma + g),)
                members.add(child)
                frontier.append((child, pos))
    return counts, members


A, B, C, D, E = (1, 0), (1, 1), (2, 0), (2, 1), (3, 0)
T1_COUNTS = {1: 2, 2: 2, 3: 1}

# The three criterion-10 families, each refuted at some size up to 3. The
# verdicts per size were recorded at the reference commit; relabeling keeps
# them, because it maps the class onto an isomorphic one.
REFUTING = (
    (T1_COUNTS, False, [(), (A,), (B,), (A, C), (A, D), (A, C, E)],
     [("no", "yes"), ("no", "no"), ("no", "no"), ("no", "no")]),
    (T1_COUNTS, False, [(), (A,), (B,), (A, C)],
     [("no", "yes"), ("no", "no"), ("no", "no"), ("yes", "yes")]),
    ({1: 2, 2: 2}, True, [(), (A,), (B,), (A, C), (A, D), (B, C), (B, D)],
     [("yes", "yes"), ("yes", "yes"), ("no", "no"), ("no", "no")]),
)


def full_tree(counts: dict[int, int], depth: int, default: int = 1, prefix: tuple = ()) -> set:
    """Every arity-disciplined diagram up to ``depth`` extending ``prefix``, with its prefixes."""
    members = prefix_closure([prefix])
    level = [prefix]
    for arity in range(len(prefix) + 1, depth + 1):
        level = [w + ((arity, i),) for w in level for i in range(counts.get(arity, default))]
        members.update(level)
    return members


# -- colorings ---------------------------------------------------------------

def random_coloring(rng: random.Random, subsets_, count, p_zero: float = 0.5) -> dict:
    """Random colors, symbol 0 with probability ``p_zero`` and the rest uniform."""
    colors = {}
    for s in subsets_:
        n = count(len(s))
        sid = 0 if n == 1 or rng.random() < p_zero else rng.randrange(1, n)
        colors[s] = (len(s), sid)
    return colors


def random_system(rng, base_size, members, count, agree=False, point_colors=None) -> dict:
    """A special system whose sides are class members, found by rejection sampling.

    ``agree`` makes the second side copy the first one through its fresh
    point; ``point_colors`` pins the two fresh points' singleton colors.
    """
    x = tuple(range(base_size))
    a1, a2 = base_size, base_size + 1
    for _ in range(10000):
        base = random_coloring(rng, oracle.all_subsets(x), count)
        if oracle.in_class(x, base, members):
            break
    else:
        raise RuntimeError("no base in class")
    through = [s for n in range(0, base_size + 1) for s in combinations(x, n)]

    def extension(point, color):
        for _ in range(10000):
            colors = dict(base)
            for s in through:
                n = len(s) + 1
                colors[s + (point,)] = (n, rng.randrange(count(n)))
            if color is not None:
                colors[(point,)] = color
            if oracle.in_class(x + (point,), colors, members):
                return colors
        raise RuntimeError("no extension in class")

    c1 = extension(a1, point_colors and point_colors[0])
    if agree:
        c2 = dict(base)
        for s in through:
            c2[s + (a2,)] = c1[s + (a1,)]
    else:
        c2 = extension(a2, point_colors and point_colors[1])
    return {
        "x": list(x),
        "a1": a1,
        "a2": a2,
        "c1": structure_json(x + (a1,), c1),
        "c2": structure_json(x + (a2,), c2),
    }


# -- workloads ---------------------------------------------------------------

def generate(workload: str, seed: int, out_dir: Path) -> list[Op]:
    """Write the workload's fixture files into ``out_dir`` and return its call list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "out").mkdir(exist_ok=True)
    _dump(out_dir / "one.json", family_json({1: 1}, [()]))
    if workload in ("models", "ranks"):
        variant = seed % VARIANTS
        rng = random.Random(f"{workload}/v{variant}")
        ops = _MAKERS[workload](rng, out_dir, variant)
    else:
        ops = _MAKERS[workload](random.Random(f"{workload}/{seed}"), out_dir)
    labels = [op.label for op in ops]
    assert len(set(labels)) == len(labels)
    return ops


def _spectra_exhaustive(rng: random.Random, d: Path) -> list[Op]:
    # Breadth search: enumeration plus thousands of tiny dap/ap searches and
    # repeated system validation, on families that must all answer yes, and
    # on refuting families whose scans stop at their first unsat system.
    ops = []
    for i in range(4):
        members = positive_tree(rng)
        _dump(d / f"pos{i}.json", family_json(POSITIVE_COUNTS, members, repeat=True))
        ops.append(Op(f"pos{i}", ("spectra", "--diagrams", f"pos{i}.json", "--lambda-max", "2"),
                      "spectra-positive", {"lambda_max": 2}))
    counts, members = truncation(3, 5, 1)
    members = relabel(members, random_perms(rng, {a: c for a, c in counts.items() if a > 1}))
    _dump(d / "trunc.json", family_json(counts, members))
    ops.append(Op("trunc", ("spectra", "--diagrams", "trunc.json", "--lambda-max", "2"),
                  "spectra-positive", {"lambda_max": 2}))
    for j, (counts, repeat, members, verdicts) in enumerate(REFUTING):
        relabeled = relabel(members, random_perms(rng, counts))
        path = f"ref{j}.json"
        _dump(d / path, family_json(counts, relabeled, repeat))
        ops.append(Op(f"ref{j}", ("spectra", "--diagrams", path, "--lambda-max", "3"),
                      "spectra-refuting", {"family": path, "verdicts": verdicts}))
    return ops


SAMPLED_CALLS = 8
SAMPLED_TRIALS = 30
SAMPLED_BUDGET = 5000


def _spectra_sampled(rng: random.Random, d: Path) -> list[Op]:
    # Few long first-solution searches with shuffled candidates, where
    # enumeration and validation do almost nothing. The node budget bounds
    # each search, so one unlucky random base cannot dominate a run.
    counts, members = truncation(3, 5, 1)
    members = relabel(members, random_perms(rng, {a: c for a, c in counts.items() if a > 1}))
    _dump(d / "trunc.json", family_json(counts, members))
    ops = []
    for i in range(SAMPLED_CALLS):
        argv = ("spectra", "--diagrams", "trunc.json", "--lambda-max", "5", "--mode", "sampled",
                "--trials", str(SAMPLED_TRIALS), "--budget", str(SAMPLED_BUDGET),
                "--seed", str(rng.randrange(10**6)))
        ops.append(Op(f"sampled{i}", argv, "spectra-sampled", {"family": "trunc.json"}))
    return ops


def _models(rng: random.Random, d: Path, variant: int) -> list[Op]:
    # Few huge structures (16 points, 65,535 subsets) through the
    # constructions, structure JSON and membership, with search bypassed;
    # the short amalgamate calls in every mode expose CLI start-up.
    m = 4
    ops = []

    def build_and_member(kind: str, params: dict, counts: dict, members: set, in_class: bool = True) -> None:
        name = kind.replace("-", "_")
        _dump(d / f"{name}.json", params)
        _dump(d / f"{name}_family.json", family_json(counts, members))
        out = f"out/build_{name}.json"
        ops.append(Op(f"build_{name}", ("build", kind, "--in", f"{name}.json"), "digest",
                      {"digest": f"models/v{variant}/build_{name}"}))
        ops.append(Op(f"member_{name}",
                      ("member", "--structure", out, "--diagrams", f"{name}_family.json"),
                      "member", {"structure": out, "family": f"{name}_family.json", "in_class": in_class}))

    pair_ids = list(range(m))
    rng.shuffle(pair_ids)
    build_and_member(
        "pair-split",
        {"m": m, "stem": [list(A)], "pairs": [[list(A), [2, i]] for i in pair_ids]},
        {1: 1, 2: m},
        prefix_closure([(A, (2, i)) for i in range(m)]),
    )

    # The splitting colorings reach monochromatic sets of several sizes
    # below their pair diagrams; the family allows every continuation.
    wide = {1: 1, 2: m, 3: 2, 4: 2, 5: 2, 6: 2}

    def below(pairs) -> set:
        return set().union(*(full_tree(wide, 16, prefix=(A, (2, c))) for c in pairs))

    positions = tuple(range(m))
    comp_count = oracle.symbol_count({1: 2, 2: 2, 3: 2, 4: 2}, False)
    stem_pair = rng.randrange(m)
    build_and_member(
        "k-split",
        {"m": m, "stem": [list(A), [2, stem_pair]],
         "components": [structure_json(positions, random_coloring(rng, oracle.all_subsets(positions), comp_count))
                        for _ in range(2)]},
        wide,
        below([stem_pair]),
    )

    lengths = rng.choice([(1, 3), (2, 2), (3, 1), (1, 1, 2), (2, 1, 1)])
    block_pairs = rng.sample(range(m), len(lengths))
    blocks, lo = [], 0
    for length, c in zip(lengths, block_pairs):
        span = tuple(range(lo, lo + length))
        pair = [list(A), [2, c]]
        blocks.append({
            "length": length, "pair": pair, "stem": pair,
            "components": [structure_json(span, random_coloring(rng, oracle.all_subsets(span), comp_count))
                           for _ in range(2)],
        })
        lo += length
    build_and_member("interval-split", {"m": m, "blocks": blocks}, wide, below(block_pairs))

    sum_count = oracle.symbol_count({n: 2 for n in range(1, 9)}, False)
    components, mono = [], set()
    for head in (0, 1):
        points = tuple(range(8))
        colors = random_coloring(rng, oracle.all_subsets(points), sum_count, p_zero=0.85)
        for s in points:
            colors[(s,)] = (1, head)
        components.append(structure_json(points, colors))
        mono |= {w for w in oracle.mono_diagrams(points, colors).values() if w is not None}
    # One realized diagram of length >= 3 is left out of the family, so this
    # member call must find the first subset that realizes it.
    family = prefix_closure(mono)
    leaves = sorted(w for w in family if len(w) >= 3 and not any(u[:-1] == w for u in family))
    family.discard(rng.choice(leaves))
    build_and_member("limit-sum", {"components": components},
                     {n: 2 for n in range(1, 9)}, family, in_class=False)

    positive = positive_tree(rng)
    _dump(d / "positive.json", family_json(POSITIVE_COUNTS, positive, repeat=True))
    pos_count = oracle.symbol_count(POSITIVE_COUNTS, True)
    full_counts = {1: 2, 2: 2}
    full = full_tree(full_counts, 6, default=2)
    _dump(d / "full.json", family_json(full_counts, full, repeat=True))
    full_count = oracle.symbol_count(full_counts, True)

    systems = []
    for i, size in enumerate((1, 2, 2)):
        systems.append(("dap", f"dap{i}", "positive.json",
                        random_system(rng, size, positive, pos_count)))
        systems.append(("ap", f"ap{i}", "positive.json",
                        random_system(rng, size, positive, pos_count, agree=i == 0)))
        # Extensions that disagree over the base take the amalgamator's first case.
        sys_ = random_system(rng, size, positive, pos_count)
        while _agrees(sys_):
            sys_ = random_system(rng, size, positive, pos_count)
        systems.append(("from-ap", f"from_ap{i}", "positive.json", sys_))

        heads = [(1, 0), (1, 1)] if i == 0 else [(1, i - 1)] * 2
        sys_ = random_system(rng, size, full, full_count, point_colors=heads)
        if heads[0] == heads[1]:
            sys_["branch"] = [list(heads[0]), [2, rng.randrange(2)]] + [[n, 0] for n in range(3, 7)]
        systems.append(("infinite", f"infinite{i}", "full.json", sys_))

        head = (1, rng.randrange(2))
        sys_ = random_system(rng, size, full, full_count, point_colors=[head, head])
        sys_["wbar"] = [list(head), [2, rng.randrange(2)]]
        x = tuple(range(size))
        sys_["cstar"] = structure_json(x, random_coloring(rng, oracle.all_subsets(x), full_count))
        systems.append(("quotient", f"quotient{i}", "full.json", sys_))

    for mode, label, family, sys_ in systems:
        _dump(d / f"{label}.json", sys_)
        ops.append(Op(label, ("amalgamate", "--system", f"{label}.json", "--diagrams", family,
                              "--mode", mode), "amalgamate", {"system": f"{label}.json", "family": family}))
    return ops


def _agrees(sys_: dict) -> bool:
    c1, c2 = sys_["c1"]["colors"], sys_["c2"]["colors"]
    a1, a2 = sys_["a1"], sys_["a2"]
    x = tuple(sys_["x"])
    return all(
        c1[oracle.subset_key(s + (a1,))] == c2[oracle.subset_key(s + (a2,))]
        for n in range(len(x) + 1) for s in combinations(x, n)
    )


# Transfinite tops for walpha-verify, each with eight usable indices below
# it, so every variant audits a truncation of the same shape.
WALPHA_VARIANTS = (
    ("w*1+1", "0,1,2,3,4,5,6,w*1"),
    ("w*2", "0,2,4,6,8,10,w*1,w*1+1"),
    ("w^2*1", "1,2,3,w*1,w*1+5,w*2,w*3,w*7"),
    ("w*1+3", "0,1,2,3,5,w*1,w*1+1,w*1+2"),
    ("w^2*1+1", "0,3,7,9,w*1,w*2,w*3,w^2*1"),
    ("w*3", "0,1,2,w*1,w*1+1,w*2,w*2+1,w*2+4"),
    ("w^(w*1)*1", "0,1,w*1,w^2*1,w^3*1,w^4*1,w^5*1,w^6*1"),
    ("w^3*1", "0,1,2,w*1,w^2*1,w^2*1+1,w^2*2,w^2*3"),
)


def _ranks(rng: random.Random, d: Path, variant: int) -> list[Op]:
    # Large diagram sets through JSON loading, validation, rank tables,
    # prune, quotient, and the closed-form rank law with transfinite
    # indices (ordinal comparison); amalgamation is never touched. Calls of
    # similar cost keep the latency percentiles inside one kind of call.
    ops = []
    shape = (8, 8, 2)
    for name in ("tree_a", "tree_b"):
        counts, members = truncation(*shape)
        members = relabel(members, random_perms(rng, counts))
        _dump(d / f"{name}.json", family_json(counts, members))
        stem = rng.choice(sorted(w for w in members if len(w) == 2))
        ops.append(Op(f"rank_{name}", ("rank", "--in", f"{name}.json"), "rank",
                      {"family": f"{name}.json", "digest": f"ranks/v{variant}/rank_{name}"}))
        ops.append(Op(f"prune_{name}", ("prune", "--in", f"{name}.json", "--keep", f"[{diagram_arg(stem)}]"),
                      "digest", {"digest": f"ranks/v{variant}/prune_{name}"}))
        ops.append(Op(f"quotient_{name}", ("quotient", "--in", f"{name}.json", "--wbar", diagram_arg(stem)),
                      "digest", {"digest": f"ranks/v{variant}/quotient_{name}"}))
    alpha, indices = WALPHA_VARIANTS[variant]
    ops.append(Op("walpha", ("walpha-verify", "--alpha", alpha, "--F", indices,
                             "--max-arity", str(shape[1]), "--max-gamma", str(shape[2])),
                  "walpha", {"digest": f"ranks/v{variant}/walpha", "members": len(truncation(*shape)[1])}))
    return ops


_MAKERS = {
    "spectra-exhaustive": _spectra_exhaustive,
    "spectra-sampled": _spectra_sampled,
    "models": _models,
    "ranks": _ranks,
}
