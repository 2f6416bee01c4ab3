import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
import strategies
from conngames import (
    ConnectivityDomain,
    DegenerateDomainError,
    NotTreeError,
    add_dummy,
    banzhaf_exact,
    ecm,
    essential_vertices,
    is_in_core,
    max_excess,
    shapley_exact,
    tree_banzhaf,
    tree_core,
    tree_ecm,
    tree_shapley,
    veto_players,
)

HALF = Fraction(1, 2)


def test_essential_path4():
    assert essential_vertices(oracles.path4()) == (0, 1)


def test_essential_star_prunes_extra_leaf():
    assert essential_vertices(oracles.star_domain()) == (0,)


def test_essential_ignores_hanging_leaf():
    # Oracle-derived: z sits in no minimal winning coalition.
    domain = oracles.path3_with_leaf()
    assert essential_vertices(domain) == (0,)
    assert oracles.essential_by_removal(domain) == (0,)


def test_essential_rejects_cycles():
    with pytest.raises(NotTreeError, match="the veto agents do not win on their own"):
        essential_vertices(oracles.cycle4())


def test_essential_accepts_a_cycle_off_the_veto_set():
    # A ring hangs off the one agent that joins the primaries: the graph and
    # its contraction have a cycle, but that agent alone wins.
    domain = oracles.lollipop(3)
    assert oracles.quotient_has_cycle(domain)
    assert essential_vertices(domain) == (0,)
    assert tree_banzhaf(domain).values == banzhaf_exact(domain).values
    assert tree_shapley(domain).values == shapley_exact(domain).values


def test_essential_rejects_degenerate():
    with pytest.raises(DegenerateDomainError):
        essential_vertices(oracles.single_primary_domain())
    with pytest.raises(DegenerateDomainError):
        essential_vertices(oracles.all_lose_domain())
    # Adjacent primaries 0, 2 and a cycle 0 - 1 - 3 - 4 - 0 of agents: every
    # coalition wins, so the empty veto set wins, yet the domain is refused.
    domain = ConnectivityDomain(5, ((0, 1), (0, 2), (0, 4), (1, 3), (3, 4)),
                                primary=(0, 2), backbone=(), standard=(1, 3, 4))
    assert oracles.quotient_has_cycle(domain)
    with pytest.raises(DegenerateDomainError, match="every coalition wins"):
        essential_vertices(domain)


def test_tree_solvers_run_on_merged_domain():
    # a - b - x - c with a, b primary and adjacent; merging makes it P - x - c.
    domain = ConnectivityDomain(4, ((0, 1), (1, 2), (2, 3)), primary=(0, 1, 3),
                                backbone=(), standard=(2,))
    assert essential_vertices(domain) == (0,)
    assert tree_shapley(domain).values == (Fraction(1),)


@settings(max_examples=200, deadline=None)
@given(domain=st.one_of(strategies.domains(max_agents=8),
                        strategies.domains(max_agents=8, tree=True),
                        strategies.symmetric_domains(max_agents=8)))
def test_tree_decision_and_closed_forms_match_oracles(domain):
    n = domain.n_agents
    veto = oracles.essential_by_removal(domain)
    if oracles.reference_value(domain, []) or not oracles.reference_value(domain, range(n)):
        with pytest.raises(DegenerateDomainError):
            essential_vertices(domain)
    elif not oracles.reference_value(domain, veto):
        with pytest.raises(NotTreeError):
            essential_vertices(domain)
    else:
        assert essential_vertices(domain) == veto
        assert tree_banzhaf(domain).values == banzhaf_exact(domain).values
        assert tree_shapley(domain).values == shapley_exact(domain).values


@st.composite
def _forest_quotient_domains(draw):
    """A random tree with 2-4 primaries and 0-4 backbones, plus edges that
    contracting the always-usable regions merges away: chords inside a region
    and second edges from a vertex into a region it already touches."""
    n = draw(st.integers(0, 8))
    n_primary = draw(st.integers(2, 4))
    n_backbone = draw(st.integers(0, 4))
    size = n + n_primary + n_backbone
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, size)}
    kinds = draw(st.permutations(range(size)))
    domain = ConnectivityDomain(size, tuple(sorted(edges)), tuple(kinds[:n_primary]),
                                tuple(kinds[n_primary:n_primary + n_backbone]),
                                tuple(kinds[n_primary + n_backbone:]))
    adjacency, region = oracles._usable_regions(domain)
    touched = {(u, region[w]) for u in range(size) for w in adjacency.get(u, ()) if w in region}
    merged = sorted({(min(u, v), max(u, v)) for u in range(size) for v in region
                     if u != v and (u, region[v]) in touched} - edges)
    extra = draw(st.lists(st.sampled_from(merged), unique=True)) if merged else []
    return replace(domain, edges=tuple(sorted(edges | set(extra))))


@settings(max_examples=200, deadline=None)
@given(domain=_forest_quotient_domains())
def test_every_forest_quotient_takes_the_closed_form(domain):
    # A graph that is a forest once always-usable regions are contracted has
    # one minimal winning coalition, so its veto set wins.
    assert not oracles.quotient_has_cycle(domain)
    assume(not oracles.reference_value(domain, []))  # a connected tree never all-loses
    assert essential_vertices(domain) == oracles.essential_by_removal(domain)
    assert tree_shapley(domain).values == shapley_exact(domain).values


def test_epsilon_core_verdicts_agree_at_epsilon_zero():
    # Agent 0 alone joins the primaries; agents 1 and 2 are isolated and each
    # paid a tolerated -1e-9, so the losing coalition {1, 2} has excess 2e-9.
    # At eps = 0 the eps-core is the core, and every route says no.
    domain = ConnectivityDomain(5, ((0, 1), (1, 2)), primary=(0, 2), backbone=(),
                                standard=(1, 3, 4))
    payoffs = [Fraction(1000000002, 10 ** 9), Fraction(-1, 10 ** 9), Fraction(-1, 10 ** 9)]
    report = max_excess(domain, payoffs, epsilon=0)
    assert (report.max_excess, report.witness.mask) == (Fraction(1, 500000000), 0b110)
    assert {tree_ecm(domain, payoffs, 0), ecm(domain, payoffs, 0),
            is_in_core(domain, payoffs), report.epsilon_verdict} == {False}


def test_tree_with_primaries_linked_through_backbone_path():
    # Contracting just the primaries would create a cycle here (two of them
    # join through a two-backbone path); the game is still the unanimity game
    # of its veto agents, so the closed forms must still apply.
    domain = ConnectivityDomain(
        12,
        ((0, 1), (0, 2), (2, 3), (0, 4), (2, 5), (5, 6), (1, 7), (4, 8),
         (0, 9), (3, 10), (10, 11)),
        primary=(8, 5, 9, 3), backbone=(10, 4, 0), standard=(7, 1, 6, 2, 11))
    assert tree_shapley(domain).values == shapley_exact(domain).values
    assert tree_banzhaf(domain).values == banzhaf_exact(domain).values


def test_merge_can_remove_cycles():
    # Two primaries joined by two backbone paths (a cycle) plus a standard
    # vertex guarding a third primary: the cycle is always usable, so the
    # one agent alone wins.
    domain = ConnectivityDomain(
        6, ((0, 1), (1, 2), (0, 3), (3, 2), (2, 4), (4, 5)),
        primary=(0, 2, 5), backbone=(1, 3), standard=(4,))
    assert essential_vertices(domain) == (0,)
    assert tree_banzhaf(domain).values == (Fraction(1),)


def test_tree_shapley_examples():
    assert tree_shapley(oracles.path3()).values == (Fraction(1),)
    assert tree_shapley(oracles.path4()).values == (HALF, HALF)
    assert tree_shapley(oracles.star_domain()).values == (Fraction(1), Fraction(0))


def test_tree_banzhaf_examples():
    assert tree_banzhaf(oracles.path3()).values == (Fraction(1),)
    assert tree_banzhaf(oracles.path4()).values == (HALF, HALF)
    grown = add_dummy(oracles.path4())
    assert tree_banzhaf(grown).values == (HALF, HALF, Fraction(0))


def test_tree_closed_forms_match_exact_enumeration():
    rng = random.Random(2024)
    for _ in range(40):
        domain = oracles.random_tree_domain(rng, max_agents=10)
        assert tree_shapley(domain).values == shapley_exact(domain).values
        assert tree_banzhaf(domain).values == banzhaf_exact(domain).values


def test_tree_closed_forms_at_larger_sizes():
    rng = random.Random(616)
    for target in (15, 16):
        while True:
            domain = oracles.random_tree_domain(rng, max_agents=target)
            if domain.n_agents == target:
                break
        assert tree_shapley(domain).values == shapley_exact(domain).values
        assert tree_banzhaf(domain).values == banzhaf_exact(domain).values


def test_forest_reading_after_add_dummy():
    domain = add_dummy(oracles.path4())
    assert essential_vertices(domain) == (0, 1)
    assert tree_shapley(domain).values == shapley_exact(domain).values


def test_essential_equals_veto_on_trees():
    rng = random.Random(404)
    for _ in range(30):
        domain = oracles.random_tree_domain(rng, max_agents=10)
        assert essential_vertices(domain) == \
            veto_players(domain).veto_agents


def test_tree_core():
    result = tree_core(oracles.path4())
    assert result.core.veto_agents == (0, 1)
    assert not result.core.is_empty
    assert result.canonical_imputation == (HALF, HALF)
    single = tree_core(oracles.path3())
    assert single.core.veto_agents == (0,)
    assert single.canonical_imputation == (Fraction(1),)
    star = tree_core(oracles.star_domain())
    assert star.core.veto_agents == veto_players(oracles.star_domain()).veto_agents


def test_tree_ecm_core_imputation():
    assert tree_ecm(oracles.path4(), [HALF, HALF], 0)
    for eps in (0.0, 0.1, 0.5, 1.0):
        assert tree_ecm(oracles.path4(), [HALF, HALF], eps)


def test_tree_ecm_dummy_example():
    domain = add_dummy(oracles.path4())
    payoffs = [0.25, 0.25, 0.5]
    assert tree_ecm(domain, payoffs, 0.5)
    assert not tree_ecm(domain, payoffs, 0.4)
    # Cross-checked against the general max-excess route.
    assert ecm(domain, payoffs, 0.5)
    assert not ecm(domain, payoffs, 0.4)


def test_tree_ecm_boundary_is_non_strict():
    domain = add_dummy(oracles.path4())
    payoffs = [0.375, 0.375, 0.25]  # essential payment exactly 0.75
    assert tree_ecm(domain, payoffs, 0.25)
    assert ecm(domain, payoffs, 0.25)
    assert not tree_ecm(domain, payoffs, 0.25 - 1e-6)
    assert not ecm(domain, payoffs, 0.25 - 1e-6)


def test_tree_ecm_rejects_bad_imputations():
    with pytest.raises(ValueError):
        tree_ecm(oracles.path4(), [0.5, 0.6], 0.1)
    with pytest.raises(ValueError):
        tree_ecm(oracles.path4(), [1.5, -0.5], 0.1)


def test_tree_ecm_monotone_in_epsilon():
    rng = random.Random(88)
    domain = add_dummy(oracles.path4())
    for _ in range(25):
        payoffs = oracles.random_imputation(rng, 3)
        previous = False
        for eps in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
            current = tree_ecm(domain, payoffs, eps)
            assert current or not previous  # once true, stays true
            previous = previous or current
