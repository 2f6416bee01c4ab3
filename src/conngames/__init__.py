"""Connectivity games: who keeps a network connected, and what is that worth.

Agents own standard vertices of a graph; a coalition wins when the vertices
it owns, plus always-available backbone and primary vertices, connect every
pair of primary vertices. This package computes fair reward shares (Banzhaf
index, Shapley value: exact or Monte Carlo) and stable reward shares (core,
epsilon-core, least core), along with generators that turn set-cover and
vertex-cover instances into games for end-to-end checks.
"""

from .domain import (
    BACKBONE,
    PRIMARY,
    STANDARD,
    Coalition,
    ConnectivityDomain,
    DomainClassification,
    ValidationReport,
    classify,
    coalition_value,
    domain_from_dict,
    domain_to_dict,
    is_critical,
    validate,
)
from .errors import (
    CapExceededError,
    DegenerateDomainError,
    InvalidDomainError,
)
from .powerindex import (
    DEFAULT_ENUMERATION_CAP,
    ApproxParams,
    IndexVector,
    banzhaf_exact,
    banzhaf_mc,
    banzhaf_mc_all,
    derive_seed,
    shapley_exact,
    shapley_mc,
    shapley_mc_all,
)
from .reductions import (
    SetCoverInstance,
    VertexCoverInstance,
    count_set_covers,
    min_vertex_cover,
    setcover_from_dict,
    setcover_to_cg,
    setcover_to_dict,
    vertexcover_from_dict,
    vertexcover_to_dict,
    vertexcover_to_ecm,
)
from .stability import (
    CoreDescription,
    ExcessReport,
    Imputation,
    LeastCoreResult,
    ecm,
    is_in_core,
    least_core_value,
    max_excess,
    veto_players,
)
from . import trees  # noqa: F401  (a layer bench/tracing.py wraps; it holds no solver)

__all__ = [
    "BACKBONE", "PRIMARY", "STANDARD",
    "Coalition", "ConnectivityDomain", "DomainClassification", "ValidationReport",
    "classify", "coalition_value", "domain_from_dict", "domain_to_dict",
    "is_critical", "validate",
    "CapExceededError", "DegenerateDomainError", "InvalidDomainError",
    "DEFAULT_ENUMERATION_CAP", "ApproxParams", "IndexVector",
    "banzhaf_exact", "banzhaf_mc", "banzhaf_mc_all", "derive_seed",
    "shapley_exact", "shapley_mc", "shapley_mc_all",
    "SetCoverInstance", "VertexCoverInstance", "count_set_covers", "min_vertex_cover",
    "setcover_from_dict", "setcover_to_cg", "setcover_to_dict",
    "vertexcover_from_dict", "vertexcover_to_dict", "vertexcover_to_ecm",
    "CoreDescription", "ExcessReport", "Imputation", "LeastCoreResult",
    "ecm", "is_in_core", "least_core_value", "max_excess", "veto_players",
]
