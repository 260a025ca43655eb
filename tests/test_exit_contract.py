"""The exit-code contract under mutated input documents.

Every command is driven through ``cli.main`` with valid fixtures that have
had one or two nodes of their documents replaced, deleted or renamed, and
with flag texts drawn from small pools of valid and broken ones. Whatever
the input, the exit code is 0, 1, 2 or 3 and nothing escapes ``main``;
exit 2 comes with an ``error:`` line and no output; exit 1 comes only from
a verdict command and exit 3 only from a budgeted search, both with their
full JSON.

Universes have at most six points and no mutation raises an arity's symbol
count. Flag pools keep ``spectra`` at sizes up to 2 with at most 3 trials
and a small budget, and ``walpha-verify`` at arities up to 4, at most two
colors and at most four indices, so no input asks for a large search.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from chroma.cli import main
from chroma.diagrams import DiagramSet, Language, RelSymbol, diagram_set_to_json
from chroma.structures import monochromatic_model, structure_to_json
from conftest import A, B, C, E, t1_set

INF = float("inf")

SCALARS = [
    None, True, False, "", "x", "[0]", 0, -1, 1, 2, 0.5, -0.0, 1e300,
    INF, -INF, float("nan"), 10**30, -(10**30), 2**64,
]
CONTAINERS = [
    [], {}, [[]], [{}], {"": []}, [[[[[]]]]], [None, None], [0, 0], [[1, 0]], {"[0]": [1, 0]},
]
# Symbol counts stay small: a language with huge counts asks the search for
# a huge enumeration, which is not an input fault.
COUNTS = [None, True, "", "x", -1, 0, 1, 2, 0.5, INF, -INF, float("nan"), [], {}, [1]]
KEYS = [
    "", "x", "0", "-1", "1.5", "99", "[0]", "[0,0]", "[9]", "[-1]", "[1e400]",
    "[Infinity]", "[NaN]", '["a"]', "[[0]]", "{}", "[", "[0,1,2,3,4,5,6,7]", "[" * 100_000,
]

T1 = diagram_set_to_json(t1_set())
SPLIT = diagram_set_to_json(
    DiagramSet.of(
        Language.of({1: 2, 2: 2}, repeat=True),
        [(), (A,), (B,), (A, C), (A, RelSymbol(2, 1)), (B, C), (B, RelSymbol(2, 1))],
    )
)


def side(universe, colors):
    return {"universe": universe, "colors": colors}


SYSTEM = {
    "x": [0],
    "a1": 1,
    "a2": 2,
    "c1": side([0, 1], {"[0]": [1, 0], "[1]": [1, 1], "[0,1]": [2, 0]}),
    "c2": side([0, 2], {"[0]": [1, 0], "[2]": [1, 1], "[0,2]": [2, 0]}),
}
MATCHING_SYSTEM = {
    "x": [0],
    "a1": 1,
    "a2": 2,
    "c1": side([0, 1], {"[0]": [1, 0], "[1]": [1, 0], "[0,1]": [2, 0]}),
    "c2": side([0, 2], {"[0]": [1, 0], "[2]": [1, 0], "[0,2]": [2, 0]}),
}
PAIRS = [side([0, 1], {"[0]": [1, 0], "[1]": [1, 0], "[0,1]": [2, i]}) for i in (0, 1)]


def amalgamate(mode, system, family=T1):
    argv = ["amalgamate", "--mode", mode, "--system", "@sys", "--diagrams", "@ds"]
    return argv, {"sys": system, "ds": family}


def build(kind, params):
    return ["build", kind, "--in", "@p"], {"p": params}


def block(i):
    """Interval-split block i: one position, pair and stem ending in symbol i."""
    pair = [[1, 0], [2, i]]
    return {
        "length": 1,
        "pair": pair,
        "stem": pair,
        "components": [side([i], {f"[{i}]": [1, c]}) for c in (0, 1)],
    }


ORDINALS = [
    "0", "1", "2", "3", "w", "w+1", "w*2", "w^2", "w^(w+1)", "w*1+1", "1+w", "w*0",
    "", "-1", "x", "1.5", "w^", "w^(", "(w)", "w)", "Infinity", "\u00b2", "\u0663",
]
# Flag texts: the first is the fixture's own, the rest are drawn in its place.
# Every integer text is small, and "--budget" is always passed to a scan.
TEXTS = {
    "lambda": ["2", "0", "1", "-1", "+1", " 2", "", "x", "1.5", "Infinity", "2**2"],
    "mode": ["sampled", "exhaustive", "", "x"],
    "trials": ["3", "0", "1", "-1", "x"],
    "budget": ["20", "1", "5", "0", "-1", "x"],
    "seed": ["0", "7", "-3", str(10**30), "x"],
    "alpha": ["w+1"] + ORDINALS,
    "F": ["0,1,w", "0,1,2,3", "w,w+1", "3,w^2", "0,w*0,w*1+1,1+w", "", ",", "0,,1", " 1 , 2 ",
          "x,1", "-1,0", "1.5", "w^(", "Infinity,w"],
    "max-arity": ["3", "-1", "0", "1", "4", "x"],
    "max-gamma": ["2", "-1", "0", "1", "x"],
}


def spectra(mode_text, family):
    argv = ["spectra", "--diagrams", "@ds", "--lambda-max=%lambda", mode_text, "--budget=%budget"]
    return argv + ["--trials=%trials", "--seed=%seed"], {"ds": family}


# Each case: the command line, with "@name" standing for a file holding
# document ``name``, "--flag=$name" for the flag with its JSON text and
# "--flag=%pool" for the flag with a text from ``TEXTS[pool]`` (a text such as
# "-Infinity" must not pass for an option), and the documents.
CASES = {
    "rank": (["rank", "--in", "@ds"], {"ds": T1}),
    "member": (
        ["member", "--structure", "@m", "--diagrams", "@ds"],
        {"m": structure_to_json(monochromatic_model((A, C, E), 3)), "ds": T1},
    ),
    "amalgamate-dap": amalgamate("dap", SYSTEM),
    "amalgamate-ap": amalgamate("ap", SYSTEM),
    "amalgamate-from-ap": amalgamate(
        "from-ap",
        {"x": [], "a1": 0, "a2": 1, "c1": side([0], {"[0]": [1, 0]}), "c2": side([1], {"[1]": [1, 1]})},
        SPLIT,
    ),
    "amalgamate-infinite": amalgamate(
        "infinite", {**MATCHING_SYSTEM, "branch": [[1, 0], [2, 0], [3, 0]]}
    ),
    "amalgamate-quotient": amalgamate(
        "quotient",
        {**MATCHING_SYSTEM, "wbar": [[1, 0], [2, 0]], "cstar": side([0], {"[0]": [1, 0]})},
    ),
    "build-mono": build("mono", {"diagram": [[1, 0], [2, 0], [3, 0]], "n": 3}),
    "build-limit-sum": build(
        "limit-sum",
        {"components": [structure_to_json(monochromatic_model((A, C), 2)), side([0], {"[0]": [1, 1]})]},
    ),
    "build-pair-split": build(
        "pair-split", {"m": 2, "stem": [[1, 0]], "pairs": [[[1, 0], [2, 0]], [[1, 0], [2, 1]]]}
    ),
    "build-k-split": build("k-split", {"m": 2, "stem": [[1, 0], [2, 0]], "components": PAIRS}),
    "build-interval-split": build("interval-split", {"m": 2, "blocks": [block(0), block(1)]}),
    "prune": (["prune", "--in", "@ds", "--keep=$keep"], {"ds": T1, "keep": [[[1, 0]]]}),
    "quotient": (["quotient", "--in", "@ds", "--wbar=$wbar"], {"ds": T1, "wbar": [[1, 0]]}),
    "spectra-exhaustive": spectra("--mode=exhaustive", T1),
    "spectra-sampled": spectra("--mode=%mode", SPLIT),
    "walpha-verify": (
        ["walpha-verify", "--alpha=%alpha", "--F=%F", "--max-arity=%max-arity", "--max-gamma=%max-gamma"],
        {},
    ),
}

VERDICT_KEYS = {
    "member": {"ok", "violating_subset", "diagram"},
    "amalgamate": {"status", "method", "witness", "identified", "refutation", "nodes"},
    "walpha-verify": {"ok", "checked", "mismatches"},
    "spectra": None,  # one entry per size
}
SCAN_KEYS = {"dap", "ap", "dap_certificate", "ap_certificate"}
BUDGETED = {"amalgamate", "spectra"}


def paths(doc, prefix=()):
    """Every node of a JSON document, as the key path leading to it."""
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from paths(value, prefix + (i,))


@st.composite
def mutated(draw, docs, least=1):
    """The documents with ``least`` to two nodes replaced, deleted, or renamed."""
    docs = copy.deepcopy(docs)
    for _ in range(draw(st.integers(least, 2))):
        path = draw(st.sampled_from([p for p in paths(docs) if p]))
        *parent_path, last = path
        parent = docs
        for key in parent_path:
            parent = parent[key]
        kinds = ["replace"] + (["delete"] if len(path) > 1 else [])
        if isinstance(parent, dict) and len(path) > 1:
            kinds.append("rename")
        kind = draw(st.sampled_from(kinds))
        if kind == "delete":
            del parent[last]
        elif kind == "rename":
            parent[draw(st.sampled_from(KEYS))] = parent.pop(last)
        else:
            pool = COUNTS if "arities" in parent_path else SCALARS + CONTAINERS
            parent[last] = copy.deepcopy(draw(st.sampled_from(pool)))
    return docs


def run_main(argv, docs, budget, texts):
    with tempfile.TemporaryDirectory() as tmp:
        args = []
        for arg in argv:
            if arg.startswith("@"):
                path = Path(tmp) / f"{arg[1:]}.json"
                path.write_text(json.dumps(docs[arg[1:]]))
                args.append(str(path))
            elif "=$" in arg:
                flag, name = arg.split("=$")
                args.append(f"{flag}={json.dumps(docs[name])}")
            elif "=%" in arg:
                flag, pool = arg.split("=%")
                args.append(f"{flag}={texts.get(pool, TEXTS[pool][0])}")
            else:
                args.append(arg)
        if budget is not None:
            args += ["--budget", str(budget)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
    return code, out.getvalue(), err.getvalue()


def check_contract(command, code, out, err):
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.endswith("\n")
        return
    assert err == ""
    payload = json.loads(out)
    if code == 1:
        assert command in VERDICT_KEYS
    if code == 3:
        assert command in BUDGETED
    if command == "spectra":
        assert sorted(payload) == [str(lam) for lam in range(len(payload))]
        assert all(set(entry) == SCAN_KEYS for entry in payload.values())
    elif command in VERDICT_KEYS:
        assert set(payload) == VERDICT_KEYS[command]


@pytest.mark.parametrize("case", sorted(CASES))
def test_fixtures_are_valid(case):
    argv, docs = CASES[case]
    code, out, err = run_main(argv, docs, None, {})
    check_contract(argv[0], code, out, err)
    assert code in (0, 1)


@pytest.mark.parametrize("case", sorted(CASES))
@given(data=st.data(), budget=st.sampled_from([None, None, 1, 3]))
@settings(max_examples=60, deadline=None)
def test_mutated_documents_keep_the_contract(case, data, budget):
    argv, docs = CASES[case]
    # A command with flag texts gets one or two of them drawn, and its
    # documents may stay intact, so that valid runs come up often.
    pools = [arg.split("=%")[1] for arg in argv if "=%" in arg]
    drawn = data.draw(st.sets(st.sampled_from(pools), min_size=1, max_size=2)) if pools else ()
    texts = {pool: data.draw(st.sampled_from(TEXTS[pool])) for pool in sorted(drawn)}
    if docs:
        docs = data.draw(mutated(docs, least=0 if pools else 1))
    if argv[0] != "amalgamate":
        budget = None
    code, out, err = run_main(argv, docs, budget, texts)
    check_contract(argv[0], code, out, err)
