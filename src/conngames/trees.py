"""Closed-form solvers for acyclic domains.

On a tree, a winning coalition must contain every standard vertex lying on
the unique path between any two primary vertices (the essential vertices),
and containing all of them is also sufficient. So the essential agents are
the veto agents, whose removal alone disconnects the primaries, and
``stability.veto_players`` finds them. Power indices and core questions then
collapse to counting: m essential agents share the reward 1/m under the
Shapley value, each has Banzhaf index 2^(1-m), the veto set is the essential
set, and an imputation is in the eps-core iff its essential payment reaches
1 - eps.

The closed forms apply exactly when the domain's cached quotient is a forest
(edges = vertices - components) and the domain is non-degenerate, which
enforces primary connectivity. In the quotient every connected region of
always-usable vertices (primaries plus backbones) is one vertex: such regions
are internally connected for every coalition, so the quotient keeps each
coalition's value while removing the only cycles that do not matter.
``essential_vertices`` makes that decision and memoizes the essential set on
the domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .domain import ConnectivityDomain, classify
from .errors import DegenerateDomainError, NotTreeError
from .powerindex import BANZHAF, SHAPLEY, TREE_CLOSED_FORM, IndexVector
from .stability import (IMPUTATION_TOL, CoreDescription, _as_payoffs, _check_total,
                        veto_players)


@dataclass(frozen=True)
class EssentialSet:
    """Agents whose vertices lie on a path between two primary vertices."""

    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)

    def __contains__(self, agent: int) -> bool:
        return agent in set(self.members)

    def __iter__(self):
        return iter(self.members)


@dataclass(frozen=True)
class TreeCoreResult:
    core: CoreDescription
    canonical_imputation: tuple[Fraction, ...]


def essential_vertices(domain: ConnectivityDomain) -> EssentialSet:
    """Agents on the minimal subtree spanning the primary vertices.

    Removing such an agent disconnects two primaries and removing any other
    agent does not, so where the closed forms apply they are the veto agents.
    This is the tree test: it raises ``NotTreeError`` on a cycle in the
    quotient and ``DegenerateDomainError`` on a degenerate domain. Memoized
    on the domain instance.
    """
    cached = domain.__dict__.get("_essential_cache")
    if cached is not None:
        return cached
    domain.ensure_valid()
    quotient = domain._quotient
    if len(quotient.edges) != quotient.vertex_count - quotient._component_count:
        raise NotTreeError(
            "domain has a cycle through standard vertices; use the general solvers")
    classification = classify(domain)
    if classification.degenerate_all_win:
        raise DegenerateDomainError("every coalition wins; tree solvers need a "
                                    "non-degenerate domain")
    if classification.degenerate_all_lose:
        raise DegenerateDomainError("even the grand coalition loses; tree solvers "
                                    "need a non-degenerate domain")
    cached = domain.__dict__["_essential_cache"] = EssentialSet(
        veto_players(domain).veto_agents)
    return cached


def _essential_vector(domain: ConnectivityDomain, essential: EssentialSet,
                      share: Fraction) -> tuple[Fraction, ...]:
    """``share`` for each essential agent and 0 for every other agent."""
    members = set(essential.members)
    return tuple(share if i in members else Fraction(0) for i in range(domain.n_agents))


def tree_shapley(domain: ConnectivityDomain) -> IndexVector:
    """Shapley values on a tree: 1/m for each of the m essential agents, else 0."""
    essential = essential_vertices(domain)
    values = _essential_vector(domain, essential, Fraction(1, essential.size))
    return IndexVector(SHAPLEY, values, TREE_CLOSED_FORM)


def tree_banzhaf(domain: ConnectivityDomain) -> IndexVector:
    """Banzhaf indices on a tree: 2^(1-m) for essential agents, else 0."""
    essential = essential_vertices(domain)
    values = _essential_vector(domain, essential, Fraction(1, 1 << (essential.size - 1)))
    return IndexVector(BANZHAF, values, TREE_CLOSED_FORM)


def tree_core(domain: ConnectivityDomain) -> TreeCoreResult:
    """Core of a tree domain: never empty, veto set = essential set, and the
    equal split over essential agents as a canonical core imputation."""
    essential = essential_vertices(domain)
    return TreeCoreResult(
        core=CoreDescription(veto_agents=essential.members, is_empty=False),
        canonical_imputation=_essential_vector(domain, essential,
                                               Fraction(1, essential.size)),
    )


def tree_ecm(domain: ConnectivityDomain, payoffs, epsilon) -> bool:
    """Epsilon-core membership on a tree: payment to essential agents must
    reach 1 - epsilon (non-strict, matching the general solver's tolerance)."""
    essential = essential_vertices(domain)
    p = _as_payoffs(payoffs, domain.n_agents)
    _check_total(domain, p)
    if any(x < -IMPUTATION_TOL for x in p):
        raise ValueError("negative payoff entries rejected")
    essential_payment = sum((p[i] for i in essential.members), Fraction(0))
    return essential_payment >= 1 - Fraction(epsilon) - IMPUTATION_TOL
