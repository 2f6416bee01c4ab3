"""Closed-form solvers for games with a winning veto set.

On a tree, a winning coalition must contain every standard vertex lying on
the unique path between any two primary vertices (the essential vertices),
and containing all of them is also sufficient. So the game is the unanimity
game of its veto agents, the agents whose removal alone disconnects the
primaries, which ``stability.veto_players`` finds. Power indices and core
questions then collapse to counting: m essential agents share the reward 1/m
under the Shapley value, each has Banzhaf index 2^(1-m), the veto set is the
essential set, and an imputation is in the eps-core iff its essential payment
reaches 1 - eps.

These closed forms need only that the game be that unanimity game (Shapley,
1953). Every winning coalition holds the veto set by definition, so the game
is that one exactly when the veto set wins on its own, that is, when there
is a single minimal winning coalition. ``essential_vertices`` tests this on
a non-degenerate domain with one kernel batch for the veto agents and one
coalition for their value, and memoizes the essential set on the domain.
Every tree passes, and so do graphs whose cycles avoid that coalition, such
as a ring hanging off a path or a cycle of always-usable vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .domain import ConnectivityDomain, classify, coalition_value
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
    """The veto agents, if they win on their own: the closed forms' test.

    On a tree these are the agents on the minimal subtree spanning the
    primary vertices. Raises ``DegenerateDomainError`` on a degenerate domain,
    whose empty veto set could win, and ``NotTreeError`` when the veto agents
    lose on their own. Memoized on the domain instance.
    """
    cached = domain.__dict__.get("_essential_cache")
    if cached is not None:
        return cached
    classification = classify(domain)
    if classification.degenerate_all_win:
        raise DegenerateDomainError("every coalition wins; tree solvers need a "
                                    "non-degenerate domain")
    if classification.degenerate_all_lose:
        raise DegenerateDomainError("even the grand coalition loses; tree solvers "
                                    "need a non-degenerate domain")
    veto = veto_players(domain).veto_agents
    if not coalition_value(domain, sum(1 << i for i in veto)):
        raise NotTreeError("the veto agents do not win on their own; use the "
                           "general solvers")
    cached = domain.__dict__["_essential_cache"] = EssentialSet(veto)
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


def essential_payment(domain: ConnectivityDomain, payoffs) -> Fraction:
    """What an imputation pays the essential agents; it must be nonnegative
    and sum to the grand coalition's value."""
    essential = essential_vertices(domain)
    p = _as_payoffs(payoffs, domain.n_agents)
    _check_total(domain, p)
    if any(x < -IMPUTATION_TOL for x in p):
        raise ValueError("negative payoff entries rejected")
    return sum((p[i] for i in essential.members), Fraction(0))


def tree_ecm(domain: ConnectivityDomain, payoffs, epsilon) -> bool:
    """Epsilon-core membership on a tree: payment to essential agents must
    reach 1 - epsilon (non-strict, matching the general solver's tolerance)."""
    return essential_payment(domain, payoffs) >= 1 - Fraction(epsilon) - IMPUTATION_TOL
