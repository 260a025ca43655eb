"""Output checker with independent oracles.

Nothing here imports ``chroma`` or the test suite: membership is decided
from the definition of monochromatic sets, refutations are confirmed by an
exhaustive search of its own, and ranks are recomputed bottom-up. Outputs
that the library must keep byte-identical are compared with digests
recorded at a reference commit.
"""

from __future__ import annotations

import hashlib
import json
from itertools import combinations
from pathlib import Path
from typing import Optional

# Exhaustive refutation checks give up beyond this many colorings tried.
CONFIRM_NODE_CAP = 2_000_000


def subset_key(subset) -> str:
    return json.dumps(list(subset), separators=(",", ":"))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- formats ---------------------------------------------------------------

def symbol_count(counts: dict[int, int], repeat: bool):
    """Symbols per arity: the tracked count, then the last one if repeating, else one."""
    top = max(counts, default=0)

    def count(arity: int) -> int:
        if arity in counts:
            return counts[arity]
        return counts[top] if repeat and counts else 1

    return count


def parse_family(obj: dict):
    """Members as tuples of (arity, id) pairs, plus the per-arity symbol count."""
    counts = {int(a): int(c) for a, c in obj["arities"].items()}
    members = {tuple((int(a), int(i)) for a, i in w) for w in obj["members"]}
    return members, symbol_count(counts, bool(obj.get("repeat", False)))


def parse_structure(obj: dict):
    universe = tuple(sorted(int(p) for p in obj["universe"]))
    colors = {
        tuple(sorted(json.loads(k))): (int(v[0]), int(v[1])) for k, v in obj["colors"].items()
    }
    return universe, colors


def all_subsets(points) -> list[tuple]:
    return [s for n in range(1, len(points) + 1) for s in combinations(points, n)]


def is_total(universe, colors) -> bool:
    """Every nonempty subset colored by a symbol of its own arity, and nothing else."""
    subs = all_subsets(universe)
    return len(colors) == len(subs) and all(
        s in colors and colors[s][0] == len(s) for s in subs
    )


# -- membership ----------------------------------------------------------------

def is_mono(colors, subset) -> bool:
    """The definition: for every size, all subsets of that size share a color."""
    return all(
        len({colors[b] for b in combinations(subset, k)}) == 1 for k in range(1, len(subset) + 1)
    )


def in_class(universe, colors, members) -> bool:
    """Brute-force membership: every monochromatic subset has an allowed diagram."""
    for s in all_subsets(tuple(sorted(universe))):
        if is_mono(colors, s) and tuple(colors[s[:k]] for k in range(1, len(s) + 1)) not in members:
            return False
    return True


def mono_diagrams(universe, colors) -> dict:
    """Diagram of every monochromatic subset, None elsewhere, for structures too big to brute-force.

    A set is monochromatic exactly when its one-smaller subsets are, with a
    common diagram; sets are visited by size so those are already known.
    """
    table: dict = {}
    for s in all_subsets(tuple(sorted(universe))):
        if len(s) == 1:
            table[s] = (colors[s],)
            continue
        first = table[s[1:]]
        if first is not None and all(table[s[:i] + s[i + 1:]] == first for i in range(1, len(s))):
            table[s] = first + (colors[s],)
        else:
            table[s] = None
    return table


def completion_exists(universe, preset, members, count, cap: int = CONFIRM_NODE_CAP) -> bool:
    """Exhaustive search for a class coloring of the missing subsets.

    Subsets are colored by size, so when one is colored all of its own
    subsets already are and its monochromaticity is final; a branch stops at
    the first monochromatic subset with a forbidden diagram. Raises
    OverflowError after ``cap`` colorings tried.
    """
    missing = [s for s in all_subsets(tuple(sorted(universe))) if s not in preset]
    colors = dict(preset)
    nodes = 0

    def extend(i: int) -> bool:
        nonlocal nodes
        if i == len(missing):
            return True
        s = missing[i]
        for sid in range(count(len(s))):
            nodes += 1
            if nodes > cap:
                raise OverflowError("refutation too large to confirm")
            colors[s] = (len(s), sid)
            if is_mono(colors, s) and tuple(colors[s[:k]] for k in range(1, len(s) + 1)) not in members:
                continue
            if extend(i + 1):
                return True
        del colors[s]
        return False

    return extend(0)


# -- ranks -------------------------------------------------------------------

def ranks(members) -> dict:
    """Bottom-up tree rank: leaves 0, parents one above their best child."""
    kids: dict = {}
    for w in members:
        if w:
            kids.setdefault(w[:-1], []).append(w)
    out: dict = {}
    for w in sorted(members, key=len, reverse=True):
        out[w] = 1 + max(out[k] for k in kids[w]) if w in kids else 0
    return out


def diagram_key(w) -> str:
    return json.dumps([list(s) for s in w], separators=(",", ":"))


# -- checks --------------------------------------------------------------------

class CheckError(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


class Checker:
    """Checks one workload's outputs; verdicts are cached per identical output."""

    def __init__(self, fixture_dir: Path, digests: dict[str, str]):
        self.dir = fixture_dir
        self.digests = digests
        self._cache: dict = {}

    def check(self, op, code: int, out: bytes) -> Optional[str]:
        """None when the output is correct, else the reason it is not."""
        key = (op.label, code, digest(out))
        if key not in self._cache:
            try:
                getattr(self, "_" + op.kind.replace("-", "_"))(op, code, out)
                self._cache[key] = None
            except CheckError as e:
                self._cache[key] = str(e)
            except (ValueError, KeyError, TypeError, IndexError, AttributeError) as e:
                self._cache[key] = f"malformed output: {type(e).__name__}: {e}"
        return self._cache[key]

    def _load(self, rel: str):
        return json.loads((self.dir / rel).read_text())

    def _digest_matches(self, op, out: bytes) -> None:
        expected = self.digests.get(op.ctx["digest"])
        _require(expected is not None, f"no recorded digest for {op.ctx['digest']}")
        _require(digest(out) == expected, "output differs from the recorded digest")

    def _digest(self, op, code, out) -> None:
        _require(code == 0, f"exit {code}, expected 0")
        self._digest_matches(op, out)

    def _rank(self, op, code, out) -> None:
        self._digest(op, code, out)
        members, _ = parse_family(self._load(op.ctx["family"]))
        expected = {diagram_key(w): str(r) for w, r in ranks(members).items()}
        _require(json.loads(out)["ranks"] == expected, "ranks differ from the bottom-up oracle")

    def _walpha(self, op, code, out) -> None:
        self._digest(op, code, out)
        data = json.loads(out)
        _require(data["ok"] is True and data["mismatches"] == [], "closed-form rank law reported broken")
        _require(data["checked"] == op.ctx["members"] - 1, "wrong number of nodes checked")

    def _spectra_positive(self, op, code, out) -> None:
        # Head rank b+1 forces disjoint amalgamation up to base size b.
        data = json.loads(out)
        _require(code == 0, f"exit {code}, expected 0")
        _require(sorted(data, key=int) == [str(n) for n in range(op.ctx["lambda_max"] + 1)], "wrong sizes")
        for lam, entry in data.items():
            _require(entry["dap"] == "yes" and entry["ap"] == "yes", f"size {lam}: verdict is not yes")

    def _spectra_refuting(self, op, code, out) -> None:
        data = json.loads(out)
        got = [(data[str(n)]["dap"], data[str(n)]["ap"]) for n in range(len(op.ctx["verdicts"]))]
        _require(len(data) == len(got), "wrong sizes")
        _require(got == [tuple(v) for v in op.ctx["verdicts"]], f"verdicts {got} differ from the recorded ones")
        self._certificates(op, code, data)

    def _spectra_sampled(self, op, code, out) -> None:
        # Sampling can refute but never prove, so only unknown and confirmed no are valid.
        data = json.loads(out)
        for lam, entry in data.items():
            _require({entry["dap"], entry["ap"]} <= {"unknown", "no"}, f"size {lam}: sampled verdict is yes")
        self._certificates(op, code, data)

    def _certificates(self, op, code, data) -> None:
        members, count = parse_family(self._load(op.ctx["family"]))
        refuted = False
        for lam, entry in data.items():
            for side in ("dap", "ap"):
                cert = entry[f"{side}_certificate"]
                if entry[side] != "no":
                    _require(cert is None, f"size {lam}: certificate without a refutation")
                    continue
                refuted = True
                _require(cert is not None and len(cert["x"]) == int(lam), f"size {lam}: bad {side} certificate")
                self._confirm(cert, members, count, f"size {lam} {side}")
        _require(code == (1 if refuted else 0), f"exit {code} does not match the verdicts")

    def _confirm(self, cert, members, count, what) -> None:
        x, a1, a2 = tuple(cert["x"]), cert["a1"], cert["a2"]
        u1, c1 = parse_structure(cert["c1"])
        u2, c2 = parse_structure(cert["c2"])
        _require(u1 == tuple(sorted(x + (a1,))) and u2 == tuple(sorted(x + (a2,))), f"{what}: wrong universes")
        _require(is_total(u1, c1) and is_total(u2, c2), f"{what}: colorings not total")
        _require(all(c1[s] == c2[s] for s in all_subsets(x)), f"{what}: sides disagree on the base")
        _require(in_class(u1, c1, members) and in_class(u2, c2, members), f"{what}: a side leaves the class")
        try:
            exists = completion_exists(x + (a1, a2), {**c1, **c2}, members, count)
        except OverflowError as e:
            raise CheckError(f"{what}: {e}")
        _require(not exists, f"{what}: refuted system has an amalgam")

    def _member(self, op, code, out) -> None:
        data = json.loads(out)
        members, _ = parse_family(self._load(op.ctx["family"]))
        universe, colors = parse_structure(self._load(op.ctx["structure"]))
        table = mono_diagrams(universe, colors)
        # Subsets in (size, lex) order, so the first violation is the minimal one.
        violation = next(((s, w) for s, w in table.items() if w is not None and w not in members), None)
        ok = violation is None
        _require(data["ok"] is ok and code == (0 if ok else 1), f"membership verdict {data['ok']} is wrong")
        _require(ok == op.ctx["in_class"], "the built structure is not where it belongs")
        if violation:
            subset, w = violation
            _require(data["violating_subset"] == list(subset), "wrong violating subset")
            _require(data["diagram"] == [list(sym) for sym in w], "wrong violating diagram")

    def _amalgamate(self, op, code, out) -> None:
        # The search effort in "nodes" may change; the witness may not break the contract.
        data = json.loads(out)
        _require(code == 0 and data["status"] in ("witness", "identification"), f"no amalgam (exit {code})")
        sys_ = self._load(op.ctx["system"])
        members, _ = parse_family(self._load(op.ctx["family"]))
        x, a1, a2 = tuple(sys_["x"]), sys_["a1"], sys_["a2"]
        _, c1 = parse_structure(sys_["c1"])
        _, c2 = parse_structure(sys_["c2"])
        universe, witness = parse_structure(data["witness"])
        _require(is_total(universe, witness), "witness coloring is not total")
        _require(in_class(universe, witness, members), "witness leaves the class")
        if data["status"] == "identification":
            _require(data["identified"] == {"a1": a1, "a2": a2, "as": a1}, "wrong identification")
            _require(witness == c1, "identification witness is not the first side")
            through = [s for n in range(len(x) + 1) for s in combinations(x, n)]
            _require(
                all(c1[tuple(sorted(s + (a1,)))] == c2[tuple(sorted(s + (a2,)))] for s in through),
                "identified points differ",
            )
        else:
            _require(universe == tuple(sorted(x + (a1, a2))), "witness has the wrong universe")
            _require(all(witness[s] == c for s, c in {**c1, **c2}.items()), "witness does not extend both sides")
