"""Best complete approximations of finite preorders.

A preference relation on a finite set (a reflexive transitive relation, not
necessarily total) induces choices: the maximal elements of each menu.  The
top-difference semimetric totals, over all menus, how far apart the choices
of two relations are.  This package computes the total preorders nearest to
a given preorder under that semimetric, three ways: by definition, through
the index-maximization dual, and in closed form for the order families where
the canonical completion is known to win.

The public names below are resolved lazily (PEP 562): a submodule is
imported on first access to one of its names, so ``import preorder_bca``
costs almost nothing and each CLI command loads only what it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "core": (
        "GroundSet", "Mask", "Preorder", "Relation", "TotalPreorder",
        "canonical_completion", "down_set", "incomparable_witness",
        "is_completion", "is_total", "layers", "maximal_elements", "to_total",
        "validate_preorder",
    ),
    "completions": (
        "enumerate_completions", "enumerate_preorders",
        "enumerate_total_preorders", "is_maximal_completion",
    ),
    "documents": (
        "RelationDocument", "document_from_relation",
        "document_to_json", "document_to_preorder", "document_to_relation",
        "parse_document", "render_dot",
    ),
    "errors": (
        "BadParameter", "DocumentError", "NotTotal", "PreorderBcaError",
        "TooLarge", "ViolationError",
    ),
    "families": ("FamilySpec",),
    "metrics": (
        "StrictCompletionReport", "ksb_distance", "top_difference_direct",
        "top_difference_fast", "verify_strict_optimality",
    ),
    "scoring": (
        "index_general", "index_total", "layer_composition", "normalized_index",
        "score",
    ),
    "solver": (
        "ApproximationReport", "ConditionStarReport", "ConditionStarWitness",
        "CoveringRadiusReport", "bca_auto", "bca_bruteforce", "bca_duality",
        "bca_theorem5", "condition_star", "covering_radius",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
