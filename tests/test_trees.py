"""The closed forms of a game whose veto agents win on their own: the exact
solvers answer it as the unanimity game of those agents, and every value is
checked against the win table's reduction or the oracles."""

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
    add_dummy,
    banzhaf_exact,
    classify,
    ecm,
    enumeration,
    is_in_core,
    least_core_value,
    max_excess,
    shapley_exact,
    veto_players,
)

HALF = Fraction(1, 2)
CLOSED_FORM = "tree-closed-form"


def _closed_form(domain) -> tuple[int, ...]:
    """The agents paid by the closed forms, once the exact solvers are seen
    to take them and their values match the win table's reduction."""
    banzhaf, shapley = banzhaf_exact(domain), shapley_exact(domain)
    assert (banzhaf.method, shapley.method) == (CLOSED_FORM, CLOSED_FORM)
    assert (banzhaf.values, shapley.values) == oracles.table_indices(domain)
    return tuple(i for i, value in enumerate(shapley.values) if value)


def _takes_the_table(domain) -> bool:
    return banzhaf_exact(domain).method == shapley_exact(domain).method == "exact-enumeration"


def test_essential_path4():
    assert _closed_form(oracles.path4()) == (0, 1)


def test_essential_star_prunes_extra_leaf():
    assert _closed_form(oracles.star_domain()) == (0,)


def test_essential_ignores_hanging_leaf():
    # Oracle-derived: z sits in no minimal winning coalition.
    domain = oracles.path3_with_leaf()
    assert _closed_form(domain) == (0,)
    assert oracles.essential_by_removal(domain) == (0,)


def test_essential_rejects_cycles():
    domain = oracles.cycle4()
    assert _takes_the_table(domain)
    assert least_core_value(domain).method == "exact-lp"


def test_essential_accepts_a_cycle_off_the_veto_set():
    # A ring hangs off the one agent that joins the primaries: the graph and
    # its contraction have a cycle, but that agent alone wins.
    domain = oracles.lollipop(3)
    assert oracles.quotient_has_cycle(domain)
    assert _closed_form(domain) == (0,)


def test_essential_rejects_degenerate():
    # Adjacent primaries 0, 2 and a cycle 0 - 1 - 3 - 4 - 0 of agents: every
    # coalition wins, so the empty veto set wins, yet the closed forms do not
    # apply.
    cyclic = ConnectivityDomain(5, ((0, 1), (0, 2), (0, 4), (1, 3), (3, 4)),
                                primary=(0, 2), backbone=(), standard=(1, 3, 4))
    assert oracles.quotient_has_cycle(cyclic)
    for domain in (oracles.single_primary_domain(), oracles.all_lose_domain(), cyclic):
        assert _takes_the_table(domain)
        with pytest.raises(DegenerateDomainError):
            least_core_value(domain)


def test_tree_solvers_run_on_merged_domain():
    # a - b - x - c with a, b primary and adjacent; merging makes it P - x - c.
    domain = ConnectivityDomain(4, ((0, 1), (1, 2), (2, 3)), primary=(0, 1, 3),
                                backbone=(), standard=(2,))
    assert _closed_form(domain) == (0,)
    assert shapley_exact(domain).values == (Fraction(1),)


@settings(max_examples=200, deadline=None)
@given(domain=st.one_of(strategies.domains(max_agents=8),
                        strategies.domains(max_agents=8, tree=True),
                        strategies.symmetric_domains(max_agents=8)))
def test_tree_decision_and_closed_forms_match_oracles(domain):
    n = domain.n_agents
    veto = oracles.essential_by_removal(domain)
    if oracles.reference_value(domain, []) or not oracles.reference_value(domain, range(n)) \
            or not oracles.reference_value(domain, veto):
        assert _takes_the_table(domain)
    else:
        assert _closed_form(domain) == veto


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
    assert _closed_form(domain) == oracles.essential_by_removal(domain)


def test_epsilon_core_verdicts_agree_at_epsilon_zero():
    # Agent 0 alone joins the primaries; agents 1 and 2 are isolated and each
    # paid a tolerated -1e-9, so the losing coalition {1, 2} has excess 2e-9.
    # At eps = 0 the eps-core is the core, and every route says no.
    domain = ConnectivityDomain(5, ((0, 1), (1, 2)), primary=(0, 2), backbone=(),
                                standard=(1, 3, 4))
    payoffs = [Fraction(1000000002, 10 ** 9), Fraction(-1, 10 ** 9), Fraction(-1, 10 ** 9)]
    report = max_excess(domain, payoffs, epsilon=0)
    assert (report.max_excess, report.witness.mask, report.method) == \
        (Fraction(1, 500000000), 0b110, CLOSED_FORM)
    assert report.max_excess == oracles.max_excess_bruteforce(domain, payoffs)
    assert {ecm(domain, payoffs, 0), is_in_core(domain, payoffs),
            report.epsilon_verdict} == {False}


def test_tree_with_primaries_linked_through_backbone_path():
    # Contracting just the primaries would create a cycle here (two of them
    # join through a two-backbone path); the game is still the unanimity game
    # of its veto agents, so the closed forms must still apply.
    domain = ConnectivityDomain(
        12,
        ((0, 1), (0, 2), (2, 3), (0, 4), (2, 5), (5, 6), (1, 7), (4, 8),
         (0, 9), (3, 10), (10, 11)),
        primary=(8, 5, 9, 3), backbone=(10, 4, 0), standard=(7, 1, 6, 2, 11))
    assert _closed_form(domain) == oracles.essential_by_removal(domain)


def test_merge_can_remove_cycles():
    # Two primaries joined by two backbone paths (a cycle) plus a standard
    # vertex guarding a third primary: the cycle is always usable, so the
    # one agent alone wins.
    domain = ConnectivityDomain(
        6, ((0, 1), (1, 2), (0, 3), (3, 2), (2, 4), (4, 5)),
        primary=(0, 2, 5), backbone=(1, 3), standard=(4,))
    assert _closed_form(domain) == (0,)
    assert banzhaf_exact(domain).values == (Fraction(1),)


def test_tree_shapley_examples():
    for domain, values in ((oracles.path3(), (Fraction(1),)),
                           (oracles.path4(), (HALF, HALF)),
                           (oracles.star_domain(), (Fraction(1), Fraction(0)))):
        _closed_form(domain)
        assert shapley_exact(domain).values == values


def test_tree_banzhaf_examples():
    for domain, values in ((oracles.path3(), (Fraction(1),)),
                           (oracles.path4(), (HALF, HALF)),
                           (add_dummy(oracles.path4()), (HALF, HALF, Fraction(0)))):
        _closed_form(domain)
        assert banzhaf_exact(domain).values == values


def test_tree_closed_forms_match_exact_enumeration():
    rng = random.Random(2024)
    for _ in range(40):
        domain = oracles.random_tree_domain(rng, max_agents=10)
        _closed_form(domain)


def test_tree_closed_forms_at_larger_sizes():
    rng = random.Random(616)
    for target in (15, 16):
        while True:
            domain = oracles.random_tree_domain(rng, max_agents=target)
            if domain.n_agents == target:
                break
        _closed_form(domain)


def test_forest_reading_after_add_dummy():
    assert _closed_form(add_dummy(oracles.path4())) == (0, 1)


def test_essential_equals_veto_on_trees():
    rng = random.Random(404)
    for _ in range(30):
        domain = oracles.random_tree_domain(rng, max_agents=10)
        assert _closed_form(domain) == veto_players(domain).veto_agents == \
            oracles.veto_enumeration(domain)


def test_tree_core():
    for domain, split in ((oracles.path4(), (HALF, HALF)),
                          (oracles.path3(), (Fraction(1),)),
                          (oracles.star_domain(), (Fraction(1), Fraction(0)))):
        core = veto_players(domain)
        assert not core.is_empty
        assert core.veto_agents == oracles.veto_enumeration(domain)
        result = least_core_value(domain)
        assert (result.epsilon, result.imputation, result.method) == (0, split, CLOSED_FORM)
        assert oracles.definitional_in_core(domain, result.imputation)


def test_tree_ecm_core_imputation():
    assert max_excess(oracles.path4(), [HALF, HALF]).method == CLOSED_FORM
    for eps in (0.0, 0.1, 0.5, 1.0):
        assert ecm(oracles.path4(), [HALF, HALF], eps)


def test_tree_ecm_dummy_example():
    domain = add_dummy(oracles.path4())
    payoffs = [0.25, 0.25, 0.5]
    assert oracles.max_excess_bruteforce(domain, payoffs) == HALF
    assert ecm(domain, payoffs, 0.5)
    assert not ecm(domain, payoffs, 0.4)


def test_tree_ecm_boundary_is_non_strict():
    domain = add_dummy(oracles.path4())
    payoffs = [0.375, 0.375, 0.25]  # essential payment exactly 0.75
    assert oracles.max_excess_bruteforce(domain, payoffs) == Fraction(1, 4)
    assert ecm(domain, payoffs, 0.25)
    assert not ecm(domain, payoffs, 0.25 - 1e-6)


def test_tree_ecm_rejects_bad_imputations():
    with pytest.raises(ValueError, match="payoffs sum to 1.1, expected 1"):
        ecm(oracles.path4(), [0.5, 0.6], 0.1)
    with pytest.raises(ValueError, match="agent 1 has negative payoff -1/2; the "
                                         "epsilon-core test takes nonnegative payoffs"):
        ecm(oracles.path4(), [1.5, -0.5], 0.1)


def test_tree_ecm_monotone_in_epsilon():
    rng = random.Random(88)
    domain = add_dummy(oracles.path4())
    for _ in range(25):
        payoffs = oracles.random_imputation(rng, 3)
        previous = False
        for eps in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
            current = ecm(domain, payoffs, eps)
            assert current or not previous  # once true, stays true
            previous = previous or current


@settings(max_examples=150, deadline=None)
@given(domain=st.one_of(strategies.unanimity_domains(max_agents=9),
                        strategies.domains(max_agents=12, wide=False)))
def test_unanimity_form_matches_the_table(domain):
    # Wherever the veto set wins, the unanimity form's values and extremal
    # masks are the win table's reductions, though it builds no table.
    assume(classify(domain).veto_wins)
    n = domain.n_agents
    game = enumeration._exact_game(domain, 0)
    assert game.method == CLOSED_FORM
    win = enumeration.win_table(domain)
    assert (game.banzhaf(), game.shapley()) == oracles.table_indices(domain)
    assert game.minimal_winning() == enumeration.minimal_winning_masks(win, n).tolist()
    assert game.maximal_losing() == enumeration.maximal_losing_masks(win, n).tolist()


def _exact_answers(domain, payoffs) -> list:
    """Every exact answer for the domain, a refusal counted as its text."""
    answers = [banzhaf_exact(domain), shapley_exact(domain), veto_players(domain)]
    for solve in (lambda: least_core_value(domain),
                  lambda: max_excess(domain, payoffs, allow_negative=True)):
        try:
            answers.append(solve())
        except (DegenerateDomainError, ValueError) as exc:
            answers.append(str(exc))
    return answers


_SMALL_DOMAINS = st.one_of(strategies.domains(max_agents=8, wide=False),
                           strategies.unanimity_domains())


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_dummy_changes_no_other_answer(data):
    # A null player gets 0 and leaves every other agent's Banzhaf index and
    # Shapley value, and the least-core eps, as they were.
    domain = data.draw(_SMALL_DOMAINS)
    grown = add_dummy(domain)
    for solve in (banzhaf_exact, shapley_exact):
        before, after = solve(domain), solve(grown)
        assert (after.values, after.method) == (before.values + (0,), before.method)
    if classify(domain).degenerate:
        with pytest.raises(DegenerateDomainError):
            least_core_value(grown)
    else:
        assert least_core_value(grown).epsilon == least_core_value(domain).epsilon


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_subdividing_an_edge_by_a_backbone_changes_no_answer(data):
    # u - v becomes u - w - v with w always usable, which keeps the value of
    # every coalition, and so every exact answer.
    domain = data.draw(_SMALL_DOMAINS)
    assume(domain.edges)
    index = data.draw(st.integers(0, len(domain.edges) - 1))
    u, v = domain.edges[index]
    w = domain.vertex_count
    subdivided = replace(domain, vertex_count=w + 1, backbone=domain.backbone + (w,),
                         edges=domain.edges[:index] + ((u, w), (w, v)) + domain.edges[index + 1:])
    payoffs = data.draw(strategies.payoffs(domain.n_agents)) if domain.n_agents else []
    assert _exact_answers(subdivided, payoffs) == _exact_answers(domain, payoffs)
