"""In-process tracing of calls into chroma's public functions, from outside the library.

``Tracer.install`` wraps each traced function in every ``chroma`` module
that binds it, so a call made through any import path opens a span. A span
records its name, start, end, parent span and operation id; a layer's self
time is its spans' duration minus the time their child spans cover.
Generators are timed per resumption, so the consumer's work between two
items is never charged to the generator.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

ROOT_SPAN = "cli.main"

# Functions timed as spans: (module, attribute).
SPANS = (
    ("ordinal", "render_ordinal"),
    ("diagrams", "diagram_set_from_json"),
    ("diagrams", "validate"),
    ("diagrams", "prune"),
    ("diagrams", "quotient"),
    ("rank", "rank_table"),
    ("walpha", "truncate"),
    ("walpha", "verify_claim"),
    ("structures", "structure_from_json"),
    ("structures", "structure_to_json"),
    ("structures", "validate_structure"),
    ("structures", "monochromatic_table"),
    ("structures", "in_class"),
    ("amalgamation", "validate_system"),
    ("amalgamation", "sample_special_system"),
    ("amalgamation", "dap_search"),
    ("amalgamation", "ap_search"),
    ("amalgamation", "dap_from_ap"),
    ("amalgamation", "amalgamate_infinite"),
    ("amalgamation", "amalgamate_quotient"),
    ("constructions", "build_pair_splitting"),
    ("constructions", "build_k_splitting"),
    ("constructions", "build_interval_splitting"),
    ("constructions", "build_limit_sum"),
)

# Functions that are only counted, because they are too small and too
# frequent to time without swamping what they measure.
COUNTED = (("ordinal", "compare"), ("cli", "system_from_json"))


def _subsets(m) -> int:
    return len(m.colors)


# Work counters read off arguments and return values: span -> (counter, value).
COUNTERS = {
    "diagrams.diagram_set_from_json": ("diagrams.members", lambda r, a: len(r.members)),
    "rank.rank_table": ("rank.rank_table.members", lambda r, a: len(r)),
    "walpha.truncate": ("walpha.truncate.members", lambda r, a: len(r.members)),
    "walpha.verify_claim": ("walpha.verify_claim.checked", lambda r, a: r.checked),
    "structures.structure_from_json": ("structures.structure_from_json.subsets", lambda r, a: _subsets(r)),
    "structures.structure_to_json": ("structures.structure_to_json.subsets", lambda r, a: _subsets(a[0])),
    "structures.validate_structure": ("structures.validate_structure.subsets", lambda r, a: _subsets(a[0])),
    "structures.monochromatic_table": ("structures.monochromatic_table.subsets", lambda r, a: _subsets(a[0])),
    "structures.in_class": ("structures.in_class.subsets", lambda r, a: _subsets(a[0])),
    "amalgamation.sample_special_system": ("amalgamation.sample_special_system.none", lambda r, a: r is None),
    "amalgamation.dap_search": ("amalgamation.dap_search.unsat", lambda r, a: r.status == "unsat"),
    "amalgamation.ap_search": ("amalgamation.ap_search.identifications",
                               lambda r, a: r.status == "identification"),
    **{
        f"constructions.{name}": (f"constructions.{name}.subsets", lambda r, a: _subsets(r))
        for name in ("build_pair_splitting", "build_k_splitting", "build_interval_splitting", "build_limit_sum")
    },
}


class Tracer:
    """Spans and counters for one traced pass, kept in memory until written."""

    def __init__(self, keep_spans: bool = True):
        self.keep_spans = keep_spans
        self.spans: list[tuple] = []  # (id, parent, op, name, start, end)
        self.self_s: dict[str, float] = defaultdict(float)
        self.self_by_op: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.op = ""
        self._stack: list[list] = []  # [id, name, start, child time]
        self._next_id = 0

    def enter(self, name: str) -> None:
        self.calls[name] += 1
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def exit(self) -> None:
        end = time.perf_counter()
        span_id, name, start, child = self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        self.self_by_op[self.op] += duration - child
        parent = None
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        if self.keep_spans:
            self.spans.append((span_id, parent, self.op, name, start, end))

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if counter is not None:
                self.counts[counter[0]] += counter[1](result, args)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _resumptions(self, name: str, gen, on_item=None, nodes_of=None):
        """Re-yield ``gen`` with one span per resumption."""
        try:
            while True:
                before = nodes_of() if nodes_of else 0
                self.enter(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.exit()
                    if nodes_of:
                        self.counts[name + ".nodes"] += nodes_of() - before
                if on_item:
                    on_item()
                yield item
        finally:
            gen.close()

    def _generator(self, name: str, fn, counter: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            def item():
                self.counts[counter] += 1

            return self._resumptions(name, fn(*args, **kwargs), item)

        return wrapper

    @contextmanager
    def install(self):
        """Wrap every traced function under every name a loaded chroma module binds it to; restore on exit."""
        from chroma import amalgamation, diagrams

        modules = [m for n, m in sys.modules.items() if n == "chroma" or n.startswith("chroma.")]
        saved: list[tuple] = []

        def patch(owner, attr, wrapper):
            saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
            setattr(owner, attr, wrapper)

        def patch_everywhere(module: str, attr: str, wrapper_for):
            original = getattr(sys.modules[f"chroma.{module}"], attr)
            wrapper = wrapper_for(f"{module}.{attr}", original)
            for mod in modules:
                for bound, value in list(vars(mod).items()):
                    if value is original:  # also catches renaming imports
                        patch(mod, bound, wrapper)

        for module, attr in SPANS:
            patch_everywhere(module, attr, self._span)
        for module, attr in COUNTED:
            patch_everywhere(module, attr, self._counted)
        patch_everywhere(
            "amalgamation", "enumerate_special_systems",
            lambda name, fn: self._generator(name, fn, name + ".systems"),
        )
        patch(diagrams.DiagramSet, "level", self._span("diagrams.DiagramSet.level", diagrams.DiagramSet.level))

        search = amalgamation.CompletionSearch
        name = "amalgamation.CompletionSearch"
        init, solutions = search.__init__, search.solutions

        @functools.wraps(init)
        def traced_init(obj, *args, **kwargs):
            self.counts[name + ".searches"] += 1
            self.enter(name)
            try:
                init(obj, *args, **kwargs)
            finally:
                self.exit()

        @functools.wraps(solutions)
        def traced_solutions(obj):
            def item():
                self.counts[name + ".solutions"] += 1

            return self._resumptions(name, solutions(obj), item, lambda: obj.nodes)

        patch(search, "__init__", traced_init)
        patch(search, "solutions", traced_solutions)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            **meta,
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "span_fields": ["id", "parent", "op", "name", "start", "end"],
            "spans": self.spans,
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh, separators=(",", ":"))


# -- per-layer metrics -------------------------------------------------------

def _self(name):
    return lambda t: t.self_s.get(name, 0.0)


def _calls(name):
    return lambda t: t.calls.get(name, 0)


def _count(name):
    return lambda t: t.counts.get(name, 0)


def _ratio(num, den):
    return lambda t: num(t) / den(t) if den(t) else 0.0


def _sampled_systems(t) -> int:
    return t.calls.get("amalgamation.sample_special_system", 0) - t.counts.get(
        "amalgamation.sample_special_system.none", 0
    )


def _systems(t) -> int:
    """Systems the pass worked on: enumerated, sampled, or read from a system file."""
    return (
        t.counts.get("amalgamation.enumerate_special_systems.systems", 0)
        + _sampled_systems(t)
        + t.calls.get("cli.system_from_json", 0)
    )


VALIDATION = (
    "amalgamation.validate_system",
    "structures.validate_structure",
    "structures.monochromatic_table",
    "structures.in_class",
)

S, COUNT, RATIO = "s", "count", "1"
CS = "amalgamation.CompletionSearch"

# (name, unit, better, value from a traced pass). cli.startup_s and the
# trace.* wall times are measured by the runner, not read off a pass.
LAYER_METRICS = [
    ("cli.main.self_s", S, "lower", _self(ROOT_SPAN)),
    ("ordinal.compare.calls", COUNT, "lower", _calls("ordinal.compare")),
    ("ordinal.render_ordinal.calls", COUNT, "lower", _calls("ordinal.render_ordinal")),
    ("ordinal.render_ordinal.self_s", S, "lower", _self("ordinal.render_ordinal")),
    ("diagrams.diagram_set_from_json.self_s", S, "lower", _self("diagrams.diagram_set_from_json")),
    ("diagrams.validate.self_s", S, "lower", _self("diagrams.validate")),
    ("diagrams.prune.self_s", S, "lower", _self("diagrams.prune")),
    ("diagrams.quotient.self_s", S, "lower", _self("diagrams.quotient")),
    ("diagrams.members", COUNT, "lower", _count("diagrams.members")),
    ("diagrams.DiagramSet.level.calls", COUNT, "lower", _calls("diagrams.DiagramSet.level")),
    ("diagrams.DiagramSet.level.self_s", S, "lower", _self("diagrams.DiagramSet.level")),
    ("rank.rank_table.calls", COUNT, "lower", _calls("rank.rank_table")),
    ("rank.rank_table.self_s", S, "lower", _self("rank.rank_table")),
    ("rank.rank_table.members", COUNT, "lower", _count("rank.rank_table.members")),
    ("walpha.truncate.self_s", S, "lower", _self("walpha.truncate")),
    ("walpha.truncate.members", COUNT, "lower", _count("walpha.truncate.members")),
    ("walpha.verify_claim.self_s", S, "lower", _self("walpha.verify_claim")),
    ("walpha.verify_claim.checked", COUNT, "lower", _count("walpha.verify_claim.checked")),
]
for _fn in ("structure_from_json", "structure_to_json"):
    LAYER_METRICS += [
        (f"structures.{_fn}.self_s", S, "lower", _self(f"structures.{_fn}")),
        (f"structures.{_fn}.subsets", COUNT, "lower", _count(f"structures.{_fn}.subsets")),
    ]
for _fn in ("validate_structure", "monochromatic_table", "in_class"):
    LAYER_METRICS += [
        (f"structures.{_fn}.calls", COUNT, "lower", _calls(f"structures.{_fn}")),
        (f"structures.{_fn}.self_s", S, "lower", _self(f"structures.{_fn}")),
        (f"structures.{_fn}.subsets", COUNT, "lower", _count(f"structures.{_fn}.subsets")),
    ]
LAYER_METRICS += [
    ("amalgamation.validate_system.calls", COUNT, "lower", _calls("amalgamation.validate_system")),
    ("amalgamation.validate_system.self_s", S, "lower", _self("amalgamation.validate_system")),
    ("amalgamation.validations_per_system", RATIO, "lower",
     _ratio(_calls("amalgamation.validate_system"), _systems)),
    (f"{CS}.searches", COUNT, "lower", _count(f"{CS}.searches")),
    (f"{CS}.nodes", COUNT, "lower", _count(f"{CS}.nodes")),
    (f"{CS}.self_s", S, "lower", _self(CS)),
    (f"{CS}.nodes_per_s", "1/s", "higher", _ratio(_count(f"{CS}.nodes"), _self(CS))),
    (f"{CS}.solutions_per_node", RATIO, "higher", _ratio(_count(f"{CS}.solutions"), _count(f"{CS}.nodes"))),
    ("amalgamation.enumerate_special_systems.systems", COUNT, "lower",
     _count("amalgamation.enumerate_special_systems.systems")),
    ("amalgamation.enumerate_special_systems.self_s", S, "lower",
     _self("amalgamation.enumerate_special_systems")),
    ("amalgamation.sample_special_system.calls", COUNT, "lower", _calls("amalgamation.sample_special_system")),
    ("amalgamation.sample_special_system.none", COUNT, "lower",
     _count("amalgamation.sample_special_system.none")),
    ("amalgamation.sample_special_system.self_s", S, "lower", _self("amalgamation.sample_special_system")),
    ("amalgamation.dap_search.calls", COUNT, "lower", _calls("amalgamation.dap_search")),
    ("amalgamation.dap_search.self_s", S, "lower", _self("amalgamation.dap_search")),
    ("amalgamation.dap_search.unsat", COUNT, "lower", _count("amalgamation.dap_search.unsat")),
    ("amalgamation.ap_search.calls", COUNT, "lower", _calls("amalgamation.ap_search")),
    ("amalgamation.ap_search.self_s", S, "lower", _self("amalgamation.ap_search")),
    ("amalgamation.ap_search.identifications", COUNT, "lower", _count("amalgamation.ap_search.identifications")),
]
for _fn in ("dap_from_ap", "amalgamate_infinite", "amalgamate_quotient"):
    LAYER_METRICS += [
        (f"amalgamation.{_fn}.calls", COUNT, "lower", _calls(f"amalgamation.{_fn}")),
        (f"amalgamation.{_fn}.self_s", S, "lower", _self(f"amalgamation.{_fn}")),
    ]
for _fn in ("build_pair_splitting", "build_k_splitting", "build_interval_splitting", "build_limit_sum"):
    LAYER_METRICS += [
        (f"constructions.{_fn}.self_s", S, "lower", _self(f"constructions.{_fn}")),
        (f"constructions.{_fn}.subsets", COUNT, "lower", _count(f"constructions.{_fn}.subsets")),
    ]
LAYER_METRICS.append(
    ("trace.validation_share", RATIO, "lower",
     lambda t: sum(t.self_s.get(n, 0.0) for n in VALIDATION) / (sum(t.self_s.values()) or 1.0))
)

# Measured by the runner around the passes rather than read off one.
RUNNER_METRICS = [
    ("cli.startup_s", S, "lower"),
    ("trace.wall_s", S, "lower"),
    ("trace.untraced_wall_s", S, "lower"),
    ("trace.overhead_s", S, "lower"),
]


def pass_metrics(tracer: Tracer) -> dict[str, float]:
    return {name: fn(tracer) for name, _, _, fn in LAYER_METRICS}
