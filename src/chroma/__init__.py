"""Coloring classes at desk scale.

Structures whose subset colorings are constrained by a prefix-closed tree
of allowed diagrams, with exact tree ranks, complete amalgamation search
on one-point extension systems, and the splitting constructions that build
large models from high ranks.

Importing the package runs none of its modules. Each is registered in
``sys.modules`` and bound here at once, but compiled and run on its first
attribute access, so a command that never reaches amalgamation never
compiles it. The names re-exported below resolve the same way.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

# The names the package re-exports, by the module that defines them.
_EXPORTS = {
    "ordinal": (
        "Ordinal", "CardinalExpr", "FiniteCardinal", "KappaCardinal", "BethCardinal",
        "PowerSetCardinal", "SupremumCardinal", "compare", "split", "fundamental_sequence",
        "bound_index", "parse_ordinal", "render_ordinal",
    ),
    "diagrams": (
        "RelSymbol", "Diagram", "Language", "DiagramSet", "FullTree", "make_diagram",
        "validate", "prune", "quotient",
    ),
    "rank": (
        "er_rank", "rank_table", "rank_witness_chain", "max_model_bound", "InfiniteDiagram",
        "BranchFamily", "infinite_diagram_consistent", "has_infinite_rank_surrogate", "RankVerdict",
    ),
    "structures": (
        "ColoringStructure", "TripleExtension", "is_monochromatic", "diagram_of",
        "monochromatic_table", "in_class", "monochromatic_model", "extend_triple", "restrict",
        "is_substructure",
    ),
    "amalgamation": (
        "SpecialSystem", "AmalgamResult", "dap_search", "ap_search", "dap_from_ap",
        "amalgamate_infinite", "amalgamate_quotient", "amalgamate_triple", "spectra_scan",
        "validate_system",
    ),
    "constructions": (
        "kappa", "BinaryStringUniverse", "delta", "delta_sequence", "s_pattern", "build_limit_sum",
        "build_pair_splitting", "build_k_splitting", "build_interval_splitting", "IntervalBlock",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def _lazy(name: str):
    """``chroma.<name>``, registered in ``sys.modules`` but run only when first read."""
    spec = find_spec(f"{__name__}.{name}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# Never ``cli``: ``python -m chroma.cli`` warns when that module is registered before it runs.
ordinal = _lazy("ordinal")
diagrams = _lazy("diagrams")
rank = _lazy("rank")
structures = _lazy("structures")
walpha = _lazy("walpha")
constructions = _lazy("constructions")
amalgamation = _lazy("amalgamation")


def __getattr__(name: str):
    """A re-exported name, read off its module, which runs on the first such read."""
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[home], name)


def __dir__():
    return sorted({*globals(), *_HOME})
