"""Command-line entry point over the JSON interchange formats.

Exit codes separate mathematical answers from operational failures: 0 for
success and positive verdicts, 1 for refutations and membership
violations, 2 for input problems, 3 for an exhausted search budget.
Output is byte-stable for fixed inputs; the only randomness lives behind
the explicit seed of sampled spectra scans.

Library names are read off their modules at call time (``rank.rank_table``),
never imported by name, so a command compiles only the modules it runs.
The library modules follow the same rule: one imports a sibling's names at
module top only if every command that runs it needs that sibling, and
otherwise reads them off the sibling at call time, so that ``spectra``,
``member``, ``build``, ``prune`` and ``quotient`` compile neither
``ordinal`` nor ``rank``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from functools import partial
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, NoReturn, Optional

from . import __getattr__ as _reexported
from . import amalgamation, constructions, diagrams, ordinal, rank, structures, walpha


def __getattr__(name: str):
    """A name the package re-exports, such as ``in_class``, read through this module."""
    try:
        return _reexported(name)
    except AttributeError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None


class InputError(Exception):
    """Bad input: malformed JSON, failed validation, missing pieces."""


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise InputError(f"{path}: invalid JSON: {e.msg} at line {e.lineno} column {e.colno}")
    except RecursionError:
        raise InputError(f"{path}: invalid JSON: nested too deeply")
    except ValueError as e:  # an integer literal past Python's digit limit, or text that is not UTF-8
        raise InputError(f"{path}: invalid JSON: {e}")
    except OSError as e:
        raise InputError(f"{path}: {e.strerror}")


def _parse_flag(flag: str, text: str):
    """The JSON value of a command-line flag; malformed or too deeply nested text is an input error."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"{flag}: invalid JSON: {e.msg} at column {e.colno}")
    except RecursionError:
        raise InputError(f"{flag}: invalid JSON: nested too deeply")
    except ValueError as e:  # an integer literal past Python's digit limit
        raise InputError(f"{flag}: invalid JSON: {e}")


def _parse_ordinal_flag(flag: str, text: str) -> ordinal.Ordinal:
    """The ordinal a command-line flag names; one nested too deeply is an input error."""
    try:
        return ordinal.parse_ordinal(text)
    except RecursionError:
        raise InputError(f"{flag}: invalid ordinal: nested too deeply")


def _load_diagram_set(path: str) -> diagrams.DiagramSet:
    try:
        ds = diagrams.diagram_set_from_json(_load_json(path))
    except ValueError as e:
        raise InputError(f"{path}: invalid diagram set: {e}")
    report = diagrams.validate(ds)
    if not report:
        raise InputError(f"{path}: invalid diagram set: {report.reason}")
    return ds


def _load_structure(path: str) -> structures.ColoringStructure:
    try:
        return structures.structure_from_json(_load_json(path))
    except ValueError as e:
        raise InputError(f"{path}: invalid structure: {e}")


def system_to_json(sys_: amalgamation.SpecialSystem) -> dict:
    return {
        "x": list(sys_.x),
        "a1": sys_.a1,
        "a2": sys_.a2,
        "c1": structures.structure_to_json(sys_.c1),
        "c2": structures.structure_to_json(sys_.c2),
    }


def system_from_json(data: dict) -> amalgamation.SpecialSystem:
    return amalgamation.SpecialSystem(
        tuple(sorted(diagrams._whole(p) for p in data["x"])),
        diagrams._whole(data["a1"]),
        diagrams._whole(data["a2"]),
        structures.structure_from_json(data["c1"]),
        structures.structure_from_json(data["c2"]),
    )


def amalgam_result_to_json(result: amalgamation.AmalgamResult) -> dict:
    return {
        "status": result.status,
        "method": result.method,
        "witness": structures.structure_to_json(result.witness) if result.witness else None,
        "identified": result.identified,
        "refutation": [
            {
                "branch": [b.color.arity, b.color.id],
                "violating_subset": list(b.violating_subset),
                "diagram": diagrams.diagram_to_json(b.diagram),
            }
            for b in result.refutation
        ],
        "nodes": result.nodes,
    }


def scan_table_to_json(table: dict[int, amalgamation.ScanEntry]) -> dict:
    out = {}
    for lam, entry in table.items():
        out[str(lam)] = {
            "dap": entry.dap,
            "ap": entry.ap,
            "dap_certificate": system_to_json(entry.dap_certificate)
            if entry.dap_certificate
            else None,
            "ap_certificate": system_to_json(entry.ap_certificate)
            if entry.ap_certificate
            else None,
        }
    return out


# Exact types whose values ``_scalar_json`` writes as ``json.dumps`` does.
_SCALAR_TYPES = frozenset({str, int, bool, float, type(None)})


def _scalar_json(o) -> Optional[str]:
    """The JSON text ``json.dumps`` writes for a scalar, or None for anything else."""
    if isinstance(o, str):
        return _quote(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return json.dumps(o)
    return None


def _key_json(key) -> str:
    """The quoted JSON text of a dict key, as ``json.dumps`` writes it."""
    text = key if isinstance(key, str) else _scalar_json(key)
    if text is None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
    return _quote(text)


def _block(open_: str, items: list[str], close: str, level: int) -> str:
    """A non-empty container at nesting ``level`` from its items' texts, two spaces per level.

    The opening text goes into the first item and the closing text into the
    last, which changes ``items``, so that one join makes the only string of
    the container's full size.
    """
    inner = "\n" + "  " * (level + 1)
    items[0] = open_ + inner + items[0]
    items[-1] += "\n" + "  " * level + close
    return ("," + inner).join(items)


def indented_json(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, with the same errors.

    CPython writes indented JSON in pure Python, one small chunk at a time.
    Here each container is joined in one go, and each list of scalars is
    encoded once per list object and nesting level: the 65,535 colors of a
    16-point structure share a handful of ``[arity, id]`` lists.
    """
    memo: dict[int, dict[int, str]] = {}  # per nesting level, scalar-list texts by list identity
    kept: list = []  # the memoized lists, so that no id is reused while the memo holds it
    active: set[int] = set()  # containers being encoded, to refuse circular references

    def enter(o) -> None:
        if id(o) in active:
            raise ValueError("Circular reference detected")
        active.add(id(o))

    def encode(o, level: int) -> str:
        if isinstance(o, str):
            return _quote(o)
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            texts = memo.setdefault(level, {})
            text = texts.get(id(o))
            if text is not None:
                return text
            if _SCALAR_TYPES.issuperset(map(type, o)):
                text = texts[id(o)] = _block("[", list(map(_scalar_json, o)), "]", level)
                kept.append(o)
                return text
            enter(o)
            # Items already in the memo are read without a call.
            texts = memo.setdefault(level + 1, {})
            text = _block("[", [texts.get(id(v)) or encode(v, level + 1) for v in o], "]", level)
        elif isinstance(o, dict):
            if not o:
                return "{}"
            enter(o)
            texts = memo.setdefault(level + 1, {})
            keys = sorted(o)
            items = [
                f"{_quote(k) if type(k) is str else _key_json(k)}: {texts.get(id(v)) or encode(v, level + 1)}"
                for k, v in zip(keys, map(o.__getitem__, keys))
            ]
            text = _block("{", items, "}", level)
        else:
            text = _scalar_json(o)
            if text is None:
                raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")
            return text
        active.discard(id(o))
        return text

    return encode(value, 0)


def _emit(payload, out_path: Optional[str]) -> None:
    text = indented_json(payload) + "\n"
    try:
        if out_path:
            with open(out_path, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as e:
        if not out_path:  # drop the unwritten bytes, or the flush at exit fails again
            with open(os.devnull, "wb") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        raise InputError(f"{out_path or 'stdout'}: {e.strerror}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Report a usage error as an input error: one ``error:`` line and exit 2."""
        raise InputError(message)


_OUT = ("--out", {"default": None})
_BUDGET = ("--budget", {"type": int, "default": None})

# Each command's help line and arguments, the arguments in the order that
# its help and its "required" errors list them.
_PARSERS = {
    "rank": ("rank every member of a diagram set", [
        ("--in", {"dest": "infile", "required": True}),
        _OUT,
    ]),
    "member": ("check a structure against a diagram set", [
        ("--structure", {"required": True}),
        ("--diagrams", {"required": True}),
        _OUT,
    ]),
    "amalgamate": ("extend a special system to the union", [
        ("--system", {"required": True}),
        ("--diagrams", {"required": True}),
        ("--mode", {"choices": ["dap", "ap", "from-ap", "infinite", "quotient"], "default": "dap"}),
        _OUT,
        _BUDGET,
    ]),
    "build": ("run a model builder on a JSON parameter block", [
        ("kind", {"choices": ["mono", "limit-sum", "pair-split", "k-split", "interval-split"]}),
        ("--in", {"dest": "infile", "required": True}),
        _OUT,
    ]),
    "spectra": ("scan amalgamation verdicts by size", [
        ("--diagrams", {"required": True}),
        ("--lambda-max", {"dest": "lambda_max", "type": int, "required": True}),
        ("--mode", {"choices": ["exhaustive", "sampled"], "default": "exhaustive"}),
        ("--trials", {"type": int, "default": 100}),
        _OUT,
        _BUDGET,
        ("--seed", {"type": int, "default": 0}),
    ]),
    "walpha-verify": ("audit the closed-form rank law on a truncation", [
        ("--alpha", {"required": True}),
        ("--F", {"dest": "indices", "required": True}),
        ("--max-arity", {"dest": "max_arity", "type": int, "required": True}),
        ("--max-gamma", {"dest": "max_gamma", "type": int, "default": 1}),
        _OUT,
    ]),
    "quotient": ("chop a stem off a diagram set", [
        ("--in", {"dest": "infile", "required": True}),
        ("--wbar", {"required": True, "help": "JSON diagram, e.g. '[[1,0]]'"}),
        _OUT,
    ]),
    "prune": ("keep members comparable with the given diagrams", [
        ("--in", {"dest": "infile", "required": True}),
        ("--keep", {"required": True, "help": "JSON list of diagrams"}),
        _OUT,
    ]),
}


def _build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of ``command`` alone, or of every command when ``command`` names none.

    A call that names no command, or one that does not exist, gets every
    subparser, since the top-level help and the ``invalid choice`` error list
    them all. The top-level parser and each subparser are built the same
    either way, so a named command parses, fails and prints its help as it
    would with all eight.
    """
    parser = _Parser(prog="chroma")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [command] if command in _PARSERS else _PARSERS:
        help_, arguments = _PARSERS[name]
        p = sub.add_parser(name, help=help_)
        for flag, options in arguments:
            p.add_argument(flag, **options)
    return parser


def _cmd_rank(args) -> tuple[dict, int]:
    ds = _load_diagram_set(args.infile)
    ranks = rank.rank_table(ds)
    keys = diagrams._diagram_keys(ranks)
    return {"ranks": {keys[w]: str(r) for w, r in ranks.items()}}, 0


def _cmd_member(args) -> tuple[dict, int]:
    ds = _load_diagram_set(args.diagrams)
    m = _load_structure(args.structure)
    report = structures.in_class(m, ds)
    payload = {
        "ok": report.ok,
        "violating_subset": list(report.violating_subset) if report.violating_subset else None,
        "diagram": diagrams.diagram_to_json(report.diagram) if report.diagram else None,
    }
    return payload, 0 if report.ok else 1


def _cmd_amalgamate(args) -> tuple[dict, int]:
    ds = _load_diagram_set(args.diagrams)
    raw = _load_json(args.system)
    try:
        sys_ = system_from_json(raw)
    except (ValueError, KeyError, TypeError, OverflowError) as e:
        raise InputError(f"{args.system}: invalid system: {e}")
    try:
        if args.mode == "dap":
            result = amalgamation.dap_search(sys_, ds, args.budget)
        elif args.mode == "ap":
            result = amalgamation.ap_search(sys_, ds, args.budget)
        elif args.mode == "from-ap":
            result = amalgamation.dap_from_ap(sys_, ds, args.budget)
        elif args.mode == "infinite":
            branch = raw.get("branch")
            d = (
                rank.InfiniteDiagram.from_symbols(diagrams.diagram_from_json(branch))
                if branch is not None
                else None
            )
            result = amalgamation.amalgamate_infinite(sys_, ds, d)
        else:
            if "wbar" not in raw or "cstar" not in raw:
                raise InputError("quotient mode needs 'wbar' and 'cstar' in the system file")
            stem = diagrams.diagram_from_json(raw["wbar"])
            if not isinstance(raw["cstar"], dict):
                raise InputError("'cstar' must be a structure object")
            cstar = (
                structures.structure_from_json(raw["cstar"])
                if raw["cstar"].get("universe")
                else structures.ColoringStructure((), {})
            )
            result = amalgamation.amalgamate_quotient(sys_, ds, stem, cstar)
    except ValueError as e:
        raise InputError(str(e))
    payload = amalgam_result_to_json(result)
    if result.status in ("witness", "identification"):
        return payload, 0
    if result.status == "unsat":
        return payload, 1
    return payload, 3


def _read_diagram(data) -> diagrams.Diagram:
    """A diagram whose symbol at each position p is p-ary, as every builder needs."""
    w = diagrams.diagram_from_json(data)
    for pos, sym in enumerate(w, start=1):
        if sym.arity != pos:
            raise ValueError(f"arity mismatch at position {pos}: symbol has arity {sym.arity}")
    return w


def _too_large(points) -> ValueError:
    return ValueError(f"a structure on {points} points exceeds the limit of {structures.LATTICE_LIMIT} points")


def _read_build(kind: str, params: dict) -> Callable[[], structures.ColoringStructure]:
    """The builder call a parameter block asks for, read before anything is built.

    Blocks of the wrong shape, with a number that is not whole where an int
    is read, or with a diagram whose arities do not follow its positions
    raise ValueError, KeyError or TypeError, and an infinite number where an
    int is read raises OverflowError. A structure on more than
    ``LATTICE_LIMIT`` points raises ValueError as soon as its size is read.
    """
    if not isinstance(params, dict):
        raise TypeError("the parameters must be a JSON object")
    limit = structures.LATTICE_LIMIT
    if kind == "mono":
        n = diagrams._whole(params["n"])
        if n > limit:
            raise _too_large(n)
        universe = params.get("universe")
        return partial(
            structures.monochromatic_model,
            _read_diagram(params["diagram"]),
            n,
            None if universe is None else [diagrams._whole(p) for p in universe],
        )
    if kind == "limit-sum":
        components = [structures.structure_from_json(c) for c in params["components"]]
        points = sum(len(c.universe) for c in components)
        if points > limit:
            raise _too_large(points)
        return partial(constructions.build_limit_sum, components)
    # The splittings color the 2^m strings of length m; m is compared, as 2^m may not fit in memory.
    m = diagrams._whole(params["m"])
    if m >= limit.bit_length():
        raise _too_large(f"2^{m}")
    if kind == "pair-split":
        return partial(
            constructions.build_pair_splitting,
            m,
            _read_diagram(params["stem"]),
            [_read_diagram(w) for w in params["pairs"]],
        )
    if kind == "k-split":
        return partial(
            constructions.build_k_splitting,
            m,
            _read_diagram(params["stem"]),
            [structures.structure_from_json(c) for c in params["components"]],
        )
    blocks = [
        constructions.IntervalBlock(
            diagrams._whole(b["length"]),
            _read_diagram(b["pair"]),
            _read_diagram(b["stem"]),
            tuple(structures.structure_from_json(c) for c in b["components"]),
        )
        for b in params["blocks"]
    ]
    return partial(constructions.build_interval_splitting, m, blocks)


def _cmd_build(args) -> tuple[dict, int]:
    params = _load_json(args.infile)
    try:
        build = _read_build(args.kind, params)
    except (ValueError, KeyError, TypeError, OverflowError) as e:
        raise InputError(f"{args.infile}: {e}")
    try:
        m = build()
    except ValueError as e:
        raise InputError(f"{args.infile}: {e}")
    return structures.structure_to_json(m), 0


def _cmd_spectra(args) -> tuple[dict, int]:
    if args.lambda_max < 0:
        raise InputError("--lambda-max must be at least 0")
    if args.trials < 0:
        raise InputError("--trials must be at least 0")
    ds = _load_diagram_set(args.diagrams)
    table = amalgamation.spectra_scan(
        ds,
        args.lambda_max,
        mode=args.mode,
        seed=args.seed,
        trials=args.trials,
        budget=args.budget,
    )
    payload = scan_table_to_json(table)
    verdicts = [e.dap for e in table.values()] + [e.ap for e in table.values()]
    if "no" in verdicts:
        return payload, 1
    if "unknown" in verdicts and args.mode == "exhaustive":
        return payload, 3
    return payload, 0


def _cmd_walpha_verify(args) -> tuple[dict, int]:
    try:
        alpha = _parse_ordinal_flag("--alpha", args.alpha)
        indices = [
            _parse_ordinal_flag("--F", part.strip()) for part in args.indices.split(",") if part.strip()
        ]
        params = walpha.WAlphaParams(alpha)
        report = walpha.verify_claim(params, indices, args.max_arity, args.max_gamma)
    except ValueError as e:
        raise InputError(str(e))
    payload = {
        "ok": report.ok,
        "checked": report.checked,
        "mismatches": [
            {
                "diagram": diagrams.diagram_to_json(m.diagram),
                "expected": m.expected,
                "actual": m.actual,
            }
            for m in report.mismatches
        ],
    }
    return payload, 0 if report.ok else 1


def _cmd_quotient(args) -> tuple[dict, int]:
    ds = _load_diagram_set(args.infile)
    wbar = _parse_flag("--wbar", args.wbar)
    try:
        stem = diagrams.diagram_from_json(wbar)
        _, result = diagrams.quotient(ds, stem)
    except ValueError as e:
        raise InputError(str(e))
    return diagrams.diagram_set_to_json(result), 0


def _cmd_prune(args) -> tuple[dict, int]:
    ds = _load_diagram_set(args.infile)
    keep = _parse_flag("--keep", args.keep)
    if not isinstance(keep, list):
        raise InputError("--keep must be a JSON list of diagrams")
    try:
        keep = [diagrams.diagram_from_json(w) for w in keep]
        result = diagrams.prune(ds, keep)
    except ValueError as e:
        raise InputError(str(e))
    return diagrams.diagram_set_to_json(result), 0


_COMMANDS = {
    "rank": _cmd_rank,
    "member": _cmd_member,
    "amalgamate": _cmd_amalgamate,
    "build": _cmd_build,
    "spectra": _cmd_spectra,
    "walpha-verify": _cmd_walpha_verify,
    "quotient": _cmd_quotient,
    "prune": _cmd_prune,
}


def main(argv: Optional[list[str]] = None) -> int:
    # chroma's data is acyclic, so the cyclic garbage collector would only
    # re-scan the input heap while it grows; it is off for the call and
    # restored after it.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(list(sys.argv[1:] if argv is None else argv))
    finally:
        if collecting:
            gc.enable()


def _run(argv: list[str]) -> int:
    # argparse reads a value such as "-Infinity" as an option, so each JSON
    # flag is joined to the value that follows it.
    for i in reversed(range(len(argv) - 1)):
        if argv[i] in ("--keep", "--wbar"):
            argv[i : i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    try:
        args = _build_parser(argv[0] if argv else None).parse_args(argv)
        if getattr(args, "budget", None) is not None and args.budget < 1:
            raise InputError("budget must be at least 1")
        payload, code = _COMMANDS[args.command](args)
        _emit(payload, args.out)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    # A clause of its own: a tuple with it would load structures on every failure.
    except structures.LatticeTooLarge as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return code


def run() -> NoReturn:
    """The process entry point: exit with the code of ``main``.

    Before the exit it freezes every surviving object into the collector's
    permanent generation, so the interpreter's final collection does not walk
    them; atexit hooks, the flushes of stdout and stderr and module teardown
    still run. Frozen cyclic garbage is never finalized, so whatever must
    happen at exit, such as closing a file, is done before ``main`` returns.
    ``main`` itself never freezes: in-process callers collect as before.
    """
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
