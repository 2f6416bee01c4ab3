import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
import strategies
from conngames import (
    CapExceededError,
    ConnectivityDomain,
    DegenerateDomainError,
    Imputation,
    add_dummy,
    classify,
    coalition_value,
    ecm,
    is_in_core,
    least_core_value,
    lp,
    max_excess,
    stability,
    vertexcover_to_ecm,
    veto_players,
)
from conngames import enumeration
from conngames.enumeration import minimal_winning_masks, win_table
from conngames.lp import LPInfeasible, LPUnbounded, solve_exact

HALF = Fraction(1, 2)


def _assert_closed_form_least_core(domain, result):
    # eps is the table scan's; the imputation is the equal split over the
    # veto agents found by the removal test, and its maximal excess is eps.
    eps = oracles.least_core_by_table_scan(domain)[0]
    veto = oracles.essential_by_removal(domain)
    split = tuple(Fraction(1, len(veto)) if i in veto else Fraction(0)
                  for i in range(domain.n_agents))
    assert (result.epsilon, result.imputation, result.method) == (eps, split, "tree-closed-form")
    assert max_excess(domain, result.imputation).max_excess == eps


# ----------------------------------------------------------- exact simplex

def test_lp_basic_maximization():
    # min -x - y  s.t.  x + y <= 1
    solution = solve_exact([-1, -1], a_ub=[[1, 1]], b_ub=[1])
    assert solution.objective == -1
    assert sum(solution.x) == 1


def test_lp_with_equality():
    # min x1 s.t. x1 + x2 = 2, x1 >= 0.5 (as -x1 <= -0.5)
    solution = solve_exact([1, 0], a_ub=[[-1, 0]], b_ub=[Fraction(-1, 2)],
                           a_eq=[[1, 1]], b_eq=[2])
    assert solution.x[0] == HALF
    assert solution.x[1] == Fraction(3, 2)


def test_lp_infeasible():
    with pytest.raises(LPInfeasible):
        solve_exact([1], a_ub=[[1], [-1]], b_ub=[1, -2])


def test_lp_unbounded():
    with pytest.raises(LPUnbounded):
        solve_exact([-1], a_ub=[[-1]], b_ub=[0])


def test_lp_degenerate_redundant_rows():
    solution = solve_exact([1, 1], a_eq=[[1, 1], [2, 2]], b_eq=[1, 2])
    assert solution.objective == 1


def _lp_outcome(solver, problem):
    try:
        return solver(*problem)
    except (LPInfeasible, LPUnbounded) as exc:
        return type(exc)


@settings(max_examples=500, deadline=None)
@given(problem=st.one_of(strategies.linear_programs(), strategies.least_core_programs()))
def test_lp_matches_fraction_simplex(problem):
    assert _lp_outcome(solve_exact, problem) == \
        _lp_outcome(oracles.fraction_simplex, problem)


def test_lp_matches_fraction_simplex_on_least_core_lps(corpus, monkeypatch):
    problems = []

    def recording(*problem):
        problems.append(problem)
        return solve_exact(*problem)

    monkeypatch.setattr(lp, "solve_exact", recording)
    for _, domain in corpus:
        least_core_value(domain)
    monkeypatch.undo()
    assert max(len(problem[1]) for problem in problems) >= 5
    for problem in problems:
        assert solve_exact(*problem) == oracles.fraction_simplex(*problem)


# ----------------------------------------------------------- veto players

def test_veto_path4():
    core = veto_players(oracles.path4())
    assert core.veto_agents == (0, 1)
    assert not core.is_empty


def test_veto_cycle4_empty():
    core = veto_players(oracles.cycle4())
    assert core.veto_agents == ()
    assert core.is_empty


def test_veto_triangle_cover_domain():
    # Derived: every 2-vertex cover of the triangle omits some vertex.
    domain, _, _ = vertexcover_to_ecm(oracles.k3_instance(2))
    assert veto_players(domain).veto_agents == ()


def test_veto_matches_enumeration(corpus):
    for name, domain in corpus:
        assert veto_players(domain).veto_agents == \
            oracles.veto_enumeration(domain), name


def test_veto_matches_enumeration_at_16_agents():
    rng = random.Random(616)
    while True:
        domain = oracles.random_tree_domain(rng, max_agents=16)
        if domain.n_agents == 16:
            break
    assert veto_players(domain).veto_agents == oracles.veto_enumeration(domain)


def test_veto_on_degenerate_domains_still_matches_enumeration():
    for domain in (oracles.adjacent_primaries_domain(), oracles.all_lose_domain()):
        assert veto_players(domain).veto_agents == oracles.veto_enumeration(domain)


# ----------------------------------------------------------- core membership

def test_in_core_examples():
    assert is_in_core(oracles.path4(), [HALF, HALF])
    assert is_in_core(oracles.path4(), [1, 0])
    domain = add_dummy(oracles.path4())
    assert not is_in_core(domain, [HALF, 0, HALF])


def test_in_core_refuses_degenerate():
    with pytest.raises(DegenerateDomainError):
        is_in_core(oracles.adjacent_primaries_domain(), [1])
    with pytest.raises(DegenerateDomainError):
        is_in_core(oracles.all_lose_domain(), [0, 0])


def test_in_core_rejects_non_imputation():
    with pytest.raises(ValueError):
        is_in_core(oracles.path4(), [0.7, 0.7])
    with pytest.raises(ValueError):
        is_in_core(oracles.path4(), [1.0])


def test_in_core_negative_entry_is_false_not_error():
    assert not is_in_core(oracles.path4(), [1.5, -0.5])


def test_in_core_agrees_with_definitional_check(corpus):
    rng = random.Random(606)
    for name, domain in corpus:
        n = domain.n_agents
        for _ in range(15):
            payoffs = oracles.random_imputation(
                rng, n, allow_negative=rng.random() < 0.3)
            assert is_in_core(domain, payoffs) == \
                oracles.definitional_in_core(domain, payoffs), (name, payoffs)


def test_in_core_iff_max_excess_nonpositive(corpus):
    rng = random.Random(707)
    for name, domain in corpus:
        n = domain.n_agents
        for _ in range(10):
            payoffs = oracles.random_imputation(rng, n)
            report = max_excess(domain, payoffs)
            assert is_in_core(domain, payoffs) == \
                (report.max_excess <= Fraction(1, 10 ** 9)), (name, payoffs)


# ----------------------------------------------------------- max excess

def test_max_excess_core_imputation_zero_witness_empty():
    report = max_excess(oracles.path4(), [HALF, HALF])
    assert report.max_excess == 0
    assert report.witness.members() == ()


def test_max_excess_cycle4():
    report = max_excess(oracles.cycle4(), [HALF, HALF])
    assert report.max_excess == HALF
    assert report.witness.members() == (0,)


def test_max_excess_triangle_equal_imputation():
    domain, payoffs, _ = vertexcover_to_ecm(oracles.k3_instance(2))
    report = max_excess(domain, payoffs)
    assert report.max_excess == Fraction(1, 3)


def test_max_excess_witness_always_validates(corpus):
    rng = random.Random(808)
    for name, domain in corpus:
        n = domain.n_agents
        for _ in range(10):
            payoffs = oracles.random_imputation(rng, n)
            report = max_excess(domain, payoffs)
            pay = sum((Fraction(payoffs[i]) for i in report.witness.members()),
                      Fraction(0))
            value = coalition_value(domain, report.witness)
            assert value - pay == report.max_excess, name


def test_max_excess_matches_bruteforce(corpus):
    rng = random.Random(909)
    for name, domain in corpus:
        n = domain.n_agents
        for _ in range(5):
            payoffs = oracles.random_imputation(rng, n)
            assert max_excess(domain, payoffs).max_excess == \
                oracles.max_excess_bruteforce(domain, payoffs), name


def test_max_excess_rejects_negative_by_default():
    with pytest.raises(ValueError):
        max_excess(oracles.path4(), [1.5, -0.5])


def test_max_excess_negative_full_scan_matches_bruteforce():
    rng = random.Random(111)
    for _ in range(10):
        domain = oracles.random_graph_domain(rng, max_agents=5,
                                             require_nondegenerate=True)
        payoffs = oracles.random_imputation(rng, domain.n_agents,
                                            allow_negative=True)
        report = max_excess(domain, payoffs, allow_negative=True)
        assert report.max_excess == oracles.max_excess_bruteforce(domain, payoffs)


def test_max_excess_scans_losing_coalitions_for_tolerated_negative_payoff():
    # Agent 0 alone loses; paid -1e-12, within the tolerance, its excess is 1e-12.
    domain = ConnectivityDomain(4, ((0, 1), (0, 2), (0, 3), (2, 3)), (1, 2), (), (3, 0))
    payoffs = [Fraction(-1, 10 ** 12), 1 + Fraction(1, 10 ** 12)]
    for allow_negative in (False, True):
        report = max_excess(domain, payoffs, allow_negative=allow_negative)
        assert (report.max_excess, report.witness.mask) == (Fraction(1, 10 ** 12), 1)


def _payment(mask, payoffs):
    return sum((p for i, p in enumerate(payoffs) if mask >> i & 1), Fraction(0))


def test_max_excess_separates_payments_ten_to_the_minus_25_apart():
    # Minimal winning coalitions {2} and {0, 1}; agent 0 is paid -10^-25, so
    # the candidates are {0, 2} and {0, 1}, paid 1/2 - 10^-25 and 1/2. Only
    # exact payments put {0, 2} first: a tie would go to the smaller mask.
    domain = ConnectivityDomain(5, ((0, 2), (2, 3), (3, 1), (0, 4), (4, 1)), (0, 1), (),
                                (2, 3, 4))
    tiny = Fraction(1, 10 ** 25)
    payoffs = [-tiny, HALF + tiny, HALF]
    report = max_excess(domain, payoffs, allow_negative=True)
    assert (report.max_excess, report.witness.mask) == (HALF + tiny, 0b101)
    assert report.max_excess == oracles.max_excess_bruteforce(domain, payoffs)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_max_excess_full_scan_matches_bruteforce_with_ties(data):
    domain = data.draw(strategies.domains(max_agents=7, wide=False))
    n = domain.n_agents
    grand = coalition_value(domain, (1 << n) - 1)
    assume(n > 0 or grand == 0)
    payoffs = data.draw(strategies.payoffs(n, total=grand))
    # Largest excess, then the smallest coalition, then the smallest mask.
    expected = min((_payment(m, payoffs) - coalition_value(domain, m), m.bit_count(), m)
                   for m in range(1 << n))
    report = max_excess(domain, payoffs, allow_negative=True)
    assert (report.max_excess, report.witness.mask) == (-expected[0], expected[2])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_winning_veto_set_is_solved_without_a_win_table(data):
    # When the veto set wins it is the only minimal winning coalition, and
    # N - {i} for each veto agent i are the maximal losing ones: the scans
    # match the oracles, negative payoffs included, and build no table even
    # under a cap of 0.
    domain = data.draw(strategies.unanimity_domains())
    assume(not classify(domain).degenerate)
    assert classify(domain).veto_wins
    payoffs = data.draw(strategies.payoffs(domain.n_agents))
    expected_excess = oracles.max_excess_bruteforce(domain, payoffs)

    def no_table(domain):
        raise AssertionError("a win table was requested")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "win_table", no_table)
        for cap in (stability.DEFAULT_ENUMERATION_CAP, 0):
            report = max_excess(domain, payoffs, allow_negative=True, cap=cap)
            assert report.max_excess == expected_excess
            witness = report.witness.mask
            assert oracles.reference_mask_value(domain, witness) - \
                _payment(witness, payoffs) == expected_excess
            _assert_closed_form_least_core(domain, least_core_value(domain, cap=cap))


def test_max_excess_memory_at_18_agents():
    domain = oracles.connected_graph_domain(random.Random(26), 18, n_edges=85)
    assert not classify(domain).degenerate
    win_table(domain)
    negative = [Fraction(-1, 18)] * 9 + [Fraction(3, 18)] * 9  # adds the losing side
    for payoffs in ([Fraction(1, 18)] * 18, negative):
        tracemalloc.start()
        try:
            max_excess(domain, payoffs, allow_negative=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 18  # a bool copy of the 2^18-entry table alone fills it


def test_max_excess_on_all_win_domain_empty_coalition():
    report = max_excess(oracles.adjacent_primaries_domain(), [1])
    assert report.max_excess == 1
    assert report.witness.members() == ()


def test_max_excess_cap():
    with pytest.raises(CapExceededError):
        max_excess(oracles.cycle4(), [HALF, HALF], cap=1)


def test_imputation_type_roundtrip():
    imp = Imputation.of(["1/3", 1 / 3, Fraction(1, 3)])
    assert imp[0] == Fraction(1, 3)
    assert len(imp) == 3
    report = max_excess(vertexcover_to_ecm(oracles.k3_instance(2))[0],
                        Imputation.of(["1/3", "1/3", "1/3"]))
    assert report.max_excess == Fraction(1, 3)


# ----------------------------------------------------------- ecm

def test_ecm_cycle4_threshold():
    payoffs = [HALF, HALF]
    assert ecm(oracles.cycle4(), payoffs, 0.5)
    assert not ecm(oracles.cycle4(), payoffs, 0.4)


def test_ecm_core_imputation_at_zero():
    assert ecm(oracles.path4(), [HALF, HALF], 0)


def test_ecm_monotone_in_epsilon():
    rng = random.Random(222)
    domain = oracles.cycle4()
    for _ in range(20):
        payoffs = oracles.random_imputation(rng, 2)
        previous = False
        for eps in (0.0, 0.25, 0.5, 0.75, 1.0):
            current = ecm(domain, payoffs, eps)
            assert current or not previous
            previous = previous or current


# ----------------------------------------------------------- least core

def test_least_core_tree_is_zero():
    result = least_core_value(oracles.path4())
    assert (result.epsilon, result.imputation, result.method) == \
        (0, (HALF, HALF), "tree-closed-form")


def test_least_core_cycle4():
    result = least_core_value(oracles.cycle4())
    assert result.epsilon == HALF
    assert result.imputation == (HALF, HALF)


def test_least_core_triangle_cover_domain():
    domain, payoffs, _ = vertexcover_to_ecm(oracles.k3_instance(2))
    result = least_core_value(domain)
    assert result.epsilon == Fraction(1, 3)  # equal imputation is optimal here
    assert ecm(domain, result.imputation, result.epsilon)


def test_least_core_single_agent_all_win_domain():
    with pytest.raises(DegenerateDomainError):
        least_core_value(oracles.adjacent_primaries_domain())


def test_least_core_cap():
    with pytest.raises(CapExceededError):
        least_core_value(oracles.cycle4(), cap=1)


def test_least_core_witness_is_feasible_and_optimal(corpus):
    for name, domain in corpus:
        if domain.n_agents > 10:
            continue
        result = least_core_value(domain)
        assert ecm(domain, result.imputation, result.epsilon), name
        # Optimality certificate: tightening eps by any margin kills feasibility.
        n = domain.n_agents
        tightened = result.epsilon - 10 * Fraction(1, 10 ** 9)
        if tightened < 0:
            continue
        rows, bounds = [], []
        for mask in minimal_winning_masks(win_table(domain), n):
            row = [0] * n
            for i in range(n):
                if mask >> i & 1:
                    row[i] = -1
            rows.append(row)
            bounds.append(-(1 - tightened))
        with pytest.raises(LPInfeasible):
            solve_exact([0] * n, a_ub=rows, b_ub=bounds,
                        a_eq=[[1] * n], b_eq=[1])


@settings(max_examples=200, deadline=None)
@given(domain=st.one_of(strategies.domains(max_agents=12, wide=False),
                        strategies.symmetric_domains()))
@example(domain=oracles.adjacent_primaries_domain())
@example(domain=oracles.all_lose_domain())
@example(domain=oracles.cycle4())
@example(domain=oracles.random_graph_domain(random.Random(11), max_agents=8))
def test_least_core_matches_table_scan(domain):
    # Same eps, imputation and restricted programs, round by round, as
    # separation over all 2^n coalitions. In the last example a payment tie
    # between minimal winning coalitions of different sizes decides a cut.
    # Degenerate domains, such as the first two examples, are refused.
    if classify(domain).degenerate:
        with pytest.raises(DegenerateDomainError):
            least_core_value(domain)
        return
    if classify(domain).veto_wins:
        _assert_closed_form_least_core(domain, least_core_value(domain))
        return
    programs = []

    def recording(active, n, grand_value):
        programs.append(tuple(active))
        return solve_active(active, n, grand_value)

    solve_active = stability._solve_active_exact
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stability, "_solve_active_exact", recording)
        result = least_core_value(domain)
    assert (result.epsilon, result.imputation, programs) == \
        oracles.least_core_by_table_scan(domain)


def test_least_core_refuses_past_the_enumeration_cap_before_any_table(monkeypatch):
    domain = oracles.connected_graph_domain(random.Random(30), 30, n_edges=70)

    def unbounded(domain):
        raise AssertionError("a 2^30 win table was requested")

    monkeypatch.setattr(enumeration, "win_table", unbounded)
    for cap in (24, 29):
        with pytest.raises(CapExceededError) as exc:
            least_core_value(domain, cap=cap)
        assert exc.value.cap == cap


def test_least_core_zero_iff_veto(corpus):
    for name, domain in corpus:
        if domain.n_agents > 10:
            continue
        result = least_core_value(domain)
        has_veto = not veto_players(domain).is_empty
        assert (result.epsilon == 0) == has_veto, name


def test_least_core_exact_on_larger_tree(tree_corpus):
    checked = 0
    for name, domain in tree_corpus:
        if domain.n_agents <= 12:
            continue
        result = least_core_value(domain)
        assert result.method == "tree-closed-form", name
        assert type(result.epsilon) is Fraction and result.epsilon == 0, name
        assert all(type(v) is Fraction for v in result.imputation), name
        assert is_in_core(domain, result.imputation), name
        assert oracles.definitional_in_core(domain, result.imputation), name
        checked += 1
    assert checked == 2


def test_min_agent_cut_matches_largest_losing_coalition():
    # Removing a minimum agent cut leaves the largest losing coalition.
    rng = random.Random(1414)
    for n in [*range(1, 11), *range(1, 11)]:
        domain = oracles.two_region_domain(rng, n)
        table = oracles.reference_table(domain)
        largest = max(m.bit_count() for m in range(1 << n) if not table[m])
        assert oracles.min_agent_cut(domain) == n - largest


def test_least_core_with_two_primary_regions_is_one_minus_inverse_cut():
    # Menger: kappa agent-disjoint paths each need 1 - eps, so eps >= 1 - 1/kappa,
    # and the equal split over a minimum cut pays every winning coalition 1/kappa.
    # Past 16 agents only the enumeration cap (24) bounds the least core.
    rng = random.Random(1313)
    cuts = {0: set(), 1: set(), 2: set()}
    for n in [*range(1, 13), *range(1, 13), *range(13, 17), *range(13, 17), *range(17, 25)]:
        domain = oracles.two_region_domain(rng, n)
        kappa = oracles.min_agent_cut(domain)
        result = least_core_value(domain)
        unanimity = oracles.reference_value(domain, oracles.essential_by_removal(domain))
        assert result.method == ("tree-closed-form" if unanimity else "exact-lp")
        assert result.epsilon == 1 - Fraction(1, kappa), (n, kappa)
        cuts[(n > 12) + (n > 16)].add(kappa)
    assert all(len(kappas) >= 3 for kappas in cuts.values())


def test_least_core_memory_at_16_agents():
    domain = oracles.connected_graph_domain(random.Random(16), 16, n_edges=40)
    tracemalloc.start()
    try:
        result = least_core_value(domain)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.epsilon > 0
    assert peak < 2 ** 20
