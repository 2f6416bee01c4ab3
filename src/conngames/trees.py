"""Closed-form solvers for games with a winning veto set.

On a tree, a winning coalition must contain every standard vertex lying on
the unique path between any two primary vertices (the essential vertices),
and containing all of them is also sufficient. So the game is the unanimity
game of its veto agents, the agents whose removal alone disconnects the
primaries. Power indices and core questions then collapse to counting: m
essential agents share the reward 1/m under the Shapley value, each has
Banzhaf index 2^(1-m), and the veto set is the essential set.

These closed forms need only that the game be that unanimity game (Shapley,
1953). Every winning coalition holds the veto set by definition, so the game
is that one exactly when the veto set wins on its own, that is, when there
is a single minimal winning coalition. ``essential_vertices`` reads this from
the structural pass ``domain.classify``, which finds the veto agents and
evaluates their coalition; nothing here calls the kernel or keeps a memo.
Every tree passes, and so do graphs whose cycles avoid that coalition, such
as a ring hanging off a path or a cycle of always-usable vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .domain import ConnectivityDomain, classify
from .errors import DegenerateDomainError, NotTreeError
from .powerindex import BANZHAF, SHAPLEY, TREE_CLOSED_FORM, IndexVector
from .stability import CoreDescription, ecm


@dataclass(frozen=True)
class TreeCoreResult:
    core: CoreDescription
    canonical_imputation: tuple[Fraction, ...]


def essential_vertices(domain: ConnectivityDomain) -> tuple[int, ...]:
    """The veto agents, if they win on their own: the closed forms' test.

    On a tree these are the agents on the minimal subtree spanning the
    primary vertices. Raises ``DegenerateDomainError`` on a degenerate domain,
    whose empty veto set could win, and ``NotTreeError`` when the veto agents
    lose on their own.
    """
    classification = classify(domain)
    if classification.degenerate_all_win:
        raise DegenerateDomainError("every coalition wins; tree solvers need a "
                                    "non-degenerate domain")
    if classification.degenerate_all_lose:
        raise DegenerateDomainError("even the grand coalition loses; tree solvers "
                                    "need a non-degenerate domain")
    if not classification.veto_wins:
        raise NotTreeError("the veto agents do not win on their own; use the "
                           "general solvers")
    return classification.veto_agents


def _essential_vector(domain: ConnectivityDomain, essential: tuple[int, ...],
                      share: Fraction) -> tuple[Fraction, ...]:
    """``share`` for each essential agent and 0 for every other agent."""
    members = set(essential)
    return tuple(share if i in members else Fraction(0) for i in range(domain.n_agents))


def tree_shapley(domain: ConnectivityDomain) -> IndexVector:
    """Shapley values where the veto set wins: 1/m for each of the m
    essential agents, else 0."""
    essential = essential_vertices(domain)
    values = _essential_vector(domain, essential, Fraction(1, len(essential)))
    return IndexVector(SHAPLEY, values, TREE_CLOSED_FORM)


def tree_banzhaf(domain: ConnectivityDomain) -> IndexVector:
    """Banzhaf indices where the veto set wins: 2^(1-m) for the m essential
    agents, else 0."""
    essential = essential_vertices(domain)
    values = _essential_vector(domain, essential, Fraction(1, 1 << (len(essential) - 1)))
    return IndexVector(BANZHAF, values, TREE_CLOSED_FORM)


def tree_core(domain: ConnectivityDomain) -> TreeCoreResult:
    """Core where the veto set wins: never empty, veto set = essential set,
    and the equal split over essential agents as a canonical core imputation."""
    essential = essential_vertices(domain)
    return TreeCoreResult(
        core=CoreDescription(veto_agents=essential, is_empty=False),
        canonical_imputation=_essential_vector(domain, essential,
                                               Fraction(1, len(essential))),
    )


def tree_ecm(domain: ConnectivityDomain, payoffs, epsilon) -> bool:
    """Epsilon-core membership where the veto set wins: the closed forms'
    test, then ``stability.ecm``, whose scan needs no win table here."""
    essential_vertices(domain)
    return ecm(domain, payoffs, epsilon)
