import json
import random
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

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
    domain_from_dict,
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
from conngames.lp import solve_exact

DATA = Path(__file__).resolve().parent / "data"
HALF = Fraction(1, 2)


def _assert_closed_form_least_core(domain, result):
    # eps is the table scan's; the imputation is the equal split over the
    # veto agents found by the removal test, and its maximal excess is eps.
    eps = oracles.least_core_by_table_scan(domain)
    veto = oracles.essential_by_removal(domain)
    split = tuple(Fraction(1, len(veto)) if i in veto else Fraction(0)
                  for i in range(domain.n_agents))
    assert (result.epsilon, result.imputation, result.method) == (eps, split, "tree-closed-form")
    assert max_excess(domain, result.imputation).max_excess == eps


# ----------------------------------------------------------- exact simplex

def _assert_covers(n, cuts, solution):
    # x >= 0 pays every cut at least 1, and the objective is its sum.
    x = solution.x
    assert len(x) == n and min(x) >= 0
    assert all(sum(x[i] for i in range(n) if cut >> i & 1) >= 1 for cut in cuts)
    assert solution.objective == sum(x)


def _assert_scaled(solution, objective):
    # x over one common denominator, the one enumeration._scaled takes for
    # its Fractions, never below 0, and summing to the objective.
    assert (solution.scale, list(solution.scaled)) == enumeration._scaled(solution.x)
    assert min(solution.scaled) >= 0
    assert Fraction(sum(solution.scaled), solution.scale) == objective


def _assert_duals_certify(n, cuts, solution):
    # The kept reduced-cost row is a positive multiple of the rational one:
    # 1 - sum of y_W over the cuts W that hold i for agent i, y_W for the
    # slack of cut W, and -tau for the value. So each agent's entry plus its
    # cuts' entries is that multiple, the same for every agent.
    _, _, reduced = solution._program
    assert len(reduced) == n + len(cuts) + 1
    y = reduced[n:-1]
    held = [sum(y_w for cut, y_w in zip(cuts, y) if cut >> i & 1) for i in range(n)]
    scales = {reduced[i] + held[i] for i in range(n)}
    assert len(scales) == 1
    scale = scales.pop()
    assert scale > 0
    # Dual feasible (y >= 0, no agent's cuts hold more than 1 of y), and the
    # dual value is the primal's: the basis carried on is optimal.
    assert min(y) >= 0 and max(held) <= scale
    assert Fraction(sum(y), scale) == solution.objective == Fraction(-reduced[-1], scale)


@settings(max_examples=500, deadline=None)
@given(program=strategies.least_core_programs())
@example(program=(3, [0b011, 0b110, 0b101]))  # every pair of three: 3/2
def test_lp_matches_fraction_simplex(program):
    # The dual simplex against the two-phase Fraction tableau on the same
    # program in standard form, with the cuts appended one at a time: on
    # every prefix, solved cold and going on from the last prefix's
    # solution, the same optimum, at a point that covers every cut and is
    # given over one common denominator; the duals the warm solution keeps
    # certify it.
    n, cuts = program
    warm = None
    for k in range(1, len(cuts) + 1):
        reference = oracles.covering_by_fraction_simplex(n, cuts[:k]).objective
        warm = solve_exact(n, cuts[:k], warm)
        _assert_duals_certify(n, cuts[:k], warm)
        for solution in (warm, solve_exact(n, cuts[:k])):
            _assert_covers(n, cuts[:k], solution)
            _assert_scaled(solution, reference)


def test_least_core_program_past_the_cap_carries_optimal_duals(monkeypatch):
    # The last program of a 71-round least core past the cap, carried from
    # round to round: its duals certify tau, so eps = 1 - 1/tau.
    domain = domain_from_dict(json.loads((DATA / "leastcore96_domain.json").read_text()))
    programs = []

    def recording(n, cuts, start):
        programs.append((n, list(cuts), solve_exact(n, cuts, start)))
        return programs[-1][-1]

    monkeypatch.setattr(lp, "solve_exact", recording)
    result = least_core_value(domain)
    n, cuts, solution = programs[-1]
    assert (n, len(cuts), result.epsilon) == (96, 71, 1 - 1 / solution.objective)
    _assert_duals_certify(n, cuts, solution)
    _assert_covers(n, cuts, solution)


def test_lp_matches_fraction_simplex_on_least_core_lps(corpus, monkeypatch):
    programs = []

    def recording(n, cuts, start):
        programs.append((n, list(cuts), solve_exact(n, cuts, start)))
        return programs[-1][-1]

    monkeypatch.setattr(lp, "solve_exact", recording)
    for _, domain in corpus:
        least_core_value(domain)
    monkeypatch.undo()
    assert max(len(cuts) for _, cuts, _ in programs) >= 5
    # Each program solved warm, as the least core solved it, and cold.
    for n, cuts, warm in programs:
        reference = oracles.covering_by_fraction_simplex(n, cuts).objective
        for solution in (warm, solve_exact(n, cuts)):
            _assert_covers(n, cuts, solution)
            _assert_scaled(solution, reference)


def test_least_core_matches_fraction_simplex_at_bench_sizes(monkeypatch):
    # Twelve graphs of 10-16 agents at the density of the leastcore bench
    # workload (a quarter of all vertex pairs are edges), whose veto set
    # loses and whose primaries lie in three or more regions, so the rounds
    # answer: the least core by the integer dual simplex has the eps of the
    # one whose programs the Fraction tableau solves. The two may end at
    # different optimal vertices, so each imputation's maximal excess is
    # checked to be that eps.
    rng = random.Random(20261019)
    domains = []
    while len(domains) < 12:
        n = 10 + len(domains) * 6 // 11
        domain = oracles.connected_graph_domain(rng, n, (n + 5) * (n + 4) // 8)
        c = classify(domain)
        if not (c.degenerate or c.veto_wins or len(enumeration._steiner(domain).terminals) == 2):
            domains.append(domain)

    def least_cores(solver):
        calls = []

        def counting(n, cuts, start):
            calls.append(cuts)
            return solver(n, cuts, start)

        monkeypatch.setattr(lp, "solve_exact", counting)
        return [least_core_value(domain) for domain in domains], len(calls)

    integer, solves = least_cores(solve_exact)
    # The Fraction reference solves every program cold.
    reference, _ = least_cores(lambda n, cuts, start: oracles.covering_by_fraction_simplex(n, cuts))
    for domain, ours, theirs in zip(domains, integer, reference):
        assert ours.epsilon == theirs.epsilon
        for result in (ours, theirs):
            assert max_excess(domain, result.imputation).max_excess == result.epsilon
    assert solves >= 3 * len(domains)


@pytest.mark.parametrize("name", ["leastcore16", "leastcore96"])
def test_least_core_rounds_build_no_fraction(monkeypatch, name):
    # Under the cap and past it, the rounds run in ints: the solver builds no
    # Fraction and no payoff is scaled. The result's Fractions are built
    # after the last round, one for eps and one per distinct share, and are
    # the pinned golden's.
    def refused(*args):
        raise AssertionError("a Fraction was built or scaled in a round")

    built = []

    def counting(*args):
        built.append(args)
        return Fraction(*args)

    domain = domain_from_dict(json.loads((DATA / f"{name}_domain.json").read_text()))
    golden = json.loads((DATA / f"{name}.json").read_text())
    monkeypatch.setattr(lp, "Fraction", refused)
    monkeypatch.setattr(enumeration, "_scaled", refused)
    monkeypatch.setattr(stability, "Fraction", counting)
    result = least_core_value(domain)
    assert str(result.epsilon) == golden["epsilon_min_rational"]
    assert [str(v) for v in result.imputation] == [
        row["value_rational"] for row in golden["imputation"]]
    assert len(built) == 1 + len(set(result.imputation))


def test_least_core_solves_one_program_a_round_with_its_cuts_second(monkeypatch):
    # bench/tracing.py counts a least core's rounds as its lp.solve_exact
    # calls and reads a program's rows from the call's second positional
    # argument: each round solves once, on the last round's cuts plus one,
    # starting from the solution the last round returned. The graph's
    # primaries lie in four regions, so the rounds answer.
    domain = oracles.connected_graph_domain(random.Random(14), 16, n_edges=40)
    assert len(enumeration._steiner(domain).terminals) == 4
    calls = []

    def recording(*args, **kwargs):
        solution = solve_exact(*args, **kwargs)
        calls.append((args[0], list(args[1]), args[2], len(args), kwargs, solution))
        return solution

    monkeypatch.setattr(lp, "solve_exact", recording)
    least_core_value(domain)
    assert len(calls) >= 3
    assert all((n, arity, kwargs) == (16, 3, {}) for n, _, _, arity, kwargs, _ in calls)
    programs = [cuts for _, cuts, _, _, _, _ in calls]
    assert programs[0] == [(1 << 16) - 1]
    assert all(later[:-1] == earlier for earlier, later in zip(programs, programs[1:]))
    starts = [start for _, _, start, _, _, _ in calls]
    returned = [solution for *_, solution in calls]
    assert starts[0] is None
    assert all(start is solution for start, solution in zip(starts[1:], returned))


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
    # When the veto set wins it is the only minimal winning coalition: the
    # scans match the oracles, negative payoffs included, and build no table
    # even under a cap of 0.
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
    negative = [Fraction(-1, 18)] * 9 + [Fraction(3, 18)] * 9  # nine agents in N-
    for payoffs in ([Fraction(1, 18)] * 18, negative):
        tracemalloc.start()
        try:
            max_excess(domain, payoffs, allow_negative=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 18  # a bool copy of the 2^18-entry table alone fills it


TOL, BELOW = Fraction(1, 10 ** 9), Fraction(1, 10 ** 18)
SUM_ABOVE = "not an imputation: payoffs sum to 1.000000001, expected 1"
SUM_BELOW = "not an imputation: payoffs sum to 0.999999999, expected 1"
NEGATIVE = ("agent 0 has negative payoff -1000000001/1000000000000000000; the "
            "epsilon-core test takes nonnegative payoffs")


@pytest.mark.parametrize("domain, cap, method", [
    (oracles.path4(), 24, "tree-closed-form"),
    (oracles.cycle4(), 24, "exact-enumeration"),
    (oracles.cycle4(), 1, "exact-steiner"),
], ids=["unanimity", "table", "steiner"])
@pytest.mark.parametrize("payoffs, error", [
    ([HALF + TOL, HALF], None),
    ([HALF - TOL, HALF], None),
    ([HALF + TOL + BELOW, HALF], SUM_ABOVE),
    ([HALF - TOL - BELOW, HALF], SUM_BELOW),
    ([-TOL, 1 + TOL], None),
    ([-TOL - BELOW, 1 + TOL + BELOW], NEGATIVE),
], ids=["sum-tol-above", "sum-tol-below", "sum-past-above", "sum-past-below",
        "negative-tol", "negative-past"])
def test_max_excess_tolerance_edges(domain, cap, method, payoffs, error):
    # The sum and sign checks run on the payoffs scaled to one denominator:
    # a sum off by exactly 10^-9 and a payoff of exactly -10^-9 are accepted,
    # and 10^-18 more is refused, with the messages the Fraction checks gave.
    if error is not None:
        with pytest.raises(ValueError) as exc:
            max_excess(domain, payoffs, cap=cap)
        assert str(exc.value) == error
        return
    report = max_excess(domain, payoffs, cap=cap)
    assert report.method == method
    assert (report.max_excess, report.witness.mask) == \
        oracles.max_excess_witness_bruteforce(domain, payoffs)


@pytest.mark.parametrize("payoffs, expected", [
    ([HALF + TOL, HALF, 0], True),
    ([HALF + TOL + BELOW, HALF, 0], SUM_ABOVE),
    ([HALF - TOL - BELOW, HALF, 0], SUM_BELOW),
    ([-TOL, 1, TOL], True),
    ([-TOL - BELOW, 1, TOL + BELOW], False),
    ([HALF, HALF - TOL, TOL], True),
    ([HALF, HALF - TOL - BELOW, TOL + BELOW], False),
], ids=["sum-tol", "sum-past-above", "sum-past-below", "negative-tol", "negative-past",
        "veto-share-tol", "veto-share-past"])
def test_in_core_tolerance_edges(payoffs, expected):
    # Agents 0 and 1 are veto, agent 2 a dummy: the sum, a negative payoff and
    # the veto agents' share are each tolerated 10^-9 off, and no more.
    domain = add_dummy(oracles.path4())
    if isinstance(expected, str):
        with pytest.raises(ValueError) as exc:
            is_in_core(domain, payoffs)
        assert str(exc.value) == expected
    else:
        assert is_in_core(domain, payoffs) is expected


def test_max_excess_on_all_win_domain_empty_coalition():
    report = max_excess(oracles.adjacent_primaries_domain(), [1])
    assert report.max_excess == 1
    assert report.witness.members() == ()


def test_max_excess_cap():
    # Past the cap and the work budget, refused before the payoffs are checked.
    with pytest.raises(CapExceededError):
        max_excess(oracles.many_primaries_domain(), [HALF, HALF], cap=1)


def test_max_excess_past_the_cap_within_the_steiner_budget():
    # The cap bounds the table only: the oracle answers the 4-cycle at cap 1,
    # for negative payoffs too. Agent 1, paid -1/2, wins on its own, so it is
    # the witness; a negative payoff not allowed is refused as an input error.
    report = max_excess(oracles.cycle4(), [HALF, HALF], cap=1)
    assert (report.max_excess, report.witness.mask, report.method) == \
        (HALF, 1, "exact-steiner")
    report = max_excess(oracles.cycle4(), [Fraction(3, 2), -HALF], cap=1, allow_negative=True)
    assert (report.max_excess, report.witness.mask, report.method) == \
        (Fraction(3, 2), 2, "exact-steiner")
    with pytest.raises(ValueError, match="^agent 1 has negative payoff -1/2;"):
        max_excess(oracles.cycle4(), [Fraction(3, 2), -HALF], cap=1)


def test_max_excess_past_the_cap_counts_the_width_of_the_weights(monkeypatch):
    # Two primaries joined by two agent paths: the oracle answers 200 and
    # 3000 agents, whose least-paid winning coalition is the path of smaller
    # masks, and refuses 16000 before it searches or a table is built, as
    # each of its node weights is a 251-word integer; 9 (V + E) alone fits
    # the budget.
    for length in (100, 1500):
        n = 2 * length
        report = max_excess(oracles.ladder_domain(length), [Fraction(1, n)] * n)
        assert (report.max_excess, report.witness.members(), report.method) == \
            (HALF, tuple(range(length)), "exact-steiner")
    wide = oracles.ladder_domain(8000)
    assert 9 * (wide.vertex_count + len(wide.edges)) <= enumeration.WORK_BUDGET \
        < enumeration._Steiner(wide).work

    def unbounded(*args):
        raise AssertionError("a 2^16000 win table or a Steiner search was requested")

    monkeypatch.setattr(enumeration, "win_table", unbounded)
    monkeypatch.setattr(enumeration._Steiner, "_lightest_tree", unbounded)
    with pytest.raises(CapExceededError) as exc:
        max_excess(wide, [Fraction(1, 16000)] * 16000)
    assert str(exc.value) == ("instance too large for exact solver: 16000 agents "
                              "exceeds the enumeration cap of 24")


def _forcing(form):
    """An ``enumeration._exact_game`` that gives every caller asking for
    least-paid winning coalitions ``form(domain)``, ``_Steiner`` or
    ``_Table``, and any other caller the planner's form."""
    planned = enumeration._exact_game

    def game(domain, cap, separates=False):
        return form(domain) if separates else planned(domain, cap)

    return game


def _imputation(domain, payoffs):
    """Nonnegative payoffs summing to the grand coalition's value: |p_i|
    over their sum (zeros and ties kept), or an equal split."""
    n = domain.n_agents
    if classify(domain).degenerate_all_lose:
        return [Fraction(0)] * n
    magnitudes = [abs(x) for x in payoffs]
    total = sum(magnitudes, Fraction(0))
    return [x / total for x in magnitudes] if total else [Fraction(1, n)] * n


@settings(max_examples=150, deadline=None)
@given(domain=st.one_of(strategies.domains(max_agents=16, wide=False),
                        strategies.sparse_domains(max_agents=16),
                        strategies.symmetric_domains(max_agents=16)),
       data=st.data())
@example(domain=oracles.adjacent_primaries_domain(), data=None)
@example(domain=oracles.all_lose_domain(), data=None)
def test_max_excess_through_the_steiner_oracle_matches_the_table(domain, data):
    # Same excess, witness and verdict as the table, and, up to 10 agents, the
    # brute-force maximum over all 2^n coalitions.
    n = domain.n_agents
    assume(n > 0 or classify(domain).degenerate_all_lose)
    drawn = data.draw(strategies.payoffs(n)) if data else [Fraction(1)] * n
    payoffs = _imputation(domain, drawn)
    reports = {}
    for form in (enumeration._Steiner, enumeration._Table):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(enumeration, "_exact_game", _forcing(form))
            reports[form] = max_excess(domain, payoffs, epsilon=0.5)
    steiner, table = reports[enumeration._Steiner], reports[enumeration._Table]
    assert (steiner.method, table.method) == ("exact-steiner", "exact-enumeration")
    assert (steiner.max_excess, steiner.witness, steiner.epsilon_verdict) == \
        (table.max_excess, table.witness, table.epsilon_verdict)
    if n <= 10:
        assert steiner.max_excess == oracles.max_excess_bruteforce(domain, payoffs)


def _forms(domain):
    """The exact forms that can answer ``domain``'s least-paid winning
    coalitions: the unanimity form where the veto set wins, the table and
    the Steiner oracle everywhere."""
    forms = [enumeration._Table, enumeration._Steiner]
    classification = classify(domain)
    if classification.veto_wins:
        forms.append(lambda d: enumeration._Unanimity(d.n_agents, classification.veto_agents))
    return forms


# All coalitions win; all lose; agent 0 alone joins the primaries, so N- wins.
_ALL_WIN = ConnectivityDomain(4, ((0, 1),), (0, 1), (), (2, 3))
_N_MINUS_WINS = ConnectivityDomain(5, ((0, 2), (2, 1), (0, 3), (3, 4), (4, 1)), (0, 1), (),
                                   (2, 3, 4))


@settings(max_examples=150, deadline=None)
@given(domain=st.one_of(strategies.domains(max_agents=8, wide=False),
                        strategies.unanimity_domains(max_agents=8),
                        strategies.symmetric_domains(max_agents=8)),
       data=st.data())
@example(domain=_ALL_WIN, data=None)
@example(domain=oracles.all_lose_domain(), data=None)
@example(domain=_N_MINUS_WINS, data=None)
def test_max_excess_of_any_sign_matches_the_brute_force_witness(domain, data):
    # Allowed payoffs of any sign, or nonnegative ones shifted by a tolerated
    # 1e-12 from one agent to another: every exact form gives the brute-force
    # excess, witness and verdict. Without drawn data, agent 0 is paid -1/2.
    n = domain.n_agents
    grand = coalition_value(domain, (1 << n) - 1)
    assume(n > 0 or grand == 0)
    if data is None:
        payoffs, allow_negative = [-HALF, *[Fraction(0)] * (n - 2), grand + HALF], True
    elif n and data.draw(st.booleans(), label="tolerated"):
        payoffs, allow_negative = _imputation(domain, data.draw(strategies.payoffs(n))), False
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        payoffs[i] -= Fraction(1, 10 ** 12)
        payoffs[j] += Fraction(1, 10 ** 12)
    else:
        payoffs, allow_negative = data.draw(strategies.payoffs(n, total=grand)), True
    epsilon = data.draw(st.sampled_from([0, 0.5])) if data else 0.5
    excess, witness = oracles.max_excess_witness_bruteforce(domain, payoffs)
    expected = (excess, witness, excess <= Fraction(epsilon) + stability.IMPUTATION_TOL)
    for form in _forms(domain):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(enumeration, "_exact_game", _forcing(form))
            report = max_excess(domain, payoffs, allow_negative=allow_negative,
                                epsilon=epsilon)
        assert (report.max_excess, report.witness.mask, report.epsilon_verdict) == expected


@pytest.mark.parametrize("value", [True, False])
def test_imputation_refuses_booleans(value):
    # Fraction(True) is 1: a boolean payoff is refused as the CLI refuses
    # a JSON boolean, not read as a number.
    with pytest.raises(ValueError, match="is not a number"):
        Imputation.of([value, 1])
    with pytest.raises(ValueError, match="is not a number"):
        max_excess(oracles.cycle4(), [value, not value])


def test_imputation_refuses_a_huge_exponent_at_once():
    # Fraction("1e999999999") would compute a billion-digit power of ten.
    started = time.perf_counter()
    with pytest.raises(ValueError, match="out of range"):
        Imputation.of(["1e999999999", 0])
    with pytest.raises(ValueError):
        max_excess(oracles.cycle4(), ["1E-43_01", 1])
    assert time.perf_counter() - started < 0.5
    assert Imputation.of(["1e4300", "-2.5E-4300"]).payoffs == \
        (Fraction(10 ** 4300), Fraction(-25, 10 ** 4301))


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
        least_core_value(oracles.many_primaries_domain(), cap=1)


def test_least_core_past_the_cap_within_the_steiner_budget():
    assert least_core_value(oracles.cycle4(), cap=1) == least_core_value(oracles.cycle4())


def test_least_core_under_the_cap_spends_no_work_budget(monkeypatch):
    # The work budget holds past the cap only: under it the Steiner oracle
    # separates with no round limit, so a zero budget changes nothing. Past
    # the cap the same least core is refused before any round.
    domain = domain_from_dict(json.loads((DATA / "steiner48_domain.json").read_text()))
    monkeypatch.setattr(enumeration, "WORK_BUDGET", 0)
    assert type(enumeration._exact_game(domain, 48, separates=True)).__name__ == "_Steiner"
    result = least_core_value(domain, cap=48)
    assert (result.epsilon, result.method) == (Fraction(5, 6), "exact-lp")
    with pytest.raises(CapExceededError):
        least_core_value(domain)


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
        with pytest.raises(oracles.LPInfeasible):
            oracles.fraction_simplex([0] * n, a_ub=rows, b_ub=bounds,
                                     a_eq=[[1] * n], b_eq=[1])


@settings(max_examples=200, deadline=None)
@given(domain=st.one_of(strategies.domains(max_agents=12, wide=False),
                        strategies.symmetric_domains()))
@example(domain=oracles.adjacent_primaries_domain())
@example(domain=oracles.all_lose_domain())
@example(domain=oracles.cycle4())
@example(domain=oracles.random_graph_domain(random.Random(11), max_agents=8))
def test_least_core_matches_table_scan(domain):
    # The eps of separation over all 2^n coalitions, whose programs the
    # Fraction tableau solves, and an imputation whose maximal excess is eps:
    # the two may end at different optimal vertices. In the last example a
    # payment tie between minimal winning coalitions of different sizes
    # decides a cut. Degenerate domains, such as the first two examples, are
    # refused.
    if classify(domain).degenerate:
        with pytest.raises(DegenerateDomainError):
            least_core_value(domain)
        return
    if classify(domain).veto_wins:
        _assert_closed_form_least_core(domain, least_core_value(domain))
        return
    result = least_core_value(domain)
    assert result.epsilon == oracles.least_core_by_table_scan(domain)
    assert max_excess(domain, result.imputation).max_excess == result.epsilon


def test_least_core_refuses_past_the_enumeration_cap_before_any_table(monkeypatch):
    # Past the cap and the work budget: refused before a 2^30 table is
    # allocated or the oracle searches.
    domain = oracles.many_primaries_domain()

    def unbounded(*args):
        raise AssertionError("a 2^30 win table or a Steiner search was requested")

    monkeypatch.setattr(enumeration, "win_table", unbounded)
    monkeypatch.setattr(enumeration._Steiner, "least_paid_winning", unbounded)
    for cap in (24, 29):
        with pytest.raises(CapExceededError) as exc:
            least_core_value(domain, cap=cap)
        assert exc.value.cap == cap


def test_least_core_past_the_enumeration_cap_builds_no_table(monkeypatch):
    # The 30-agent graph of 4 primaries that the cap refused before: the
    # oracle separates, and the imputation's maximal excess is epsilon.
    domain = oracles.connected_graph_domain(random.Random(30), 30, n_edges=70)

    def unbounded(domain):
        raise AssertionError("a 2^30 win table was requested")

    monkeypatch.setattr(enumeration, "win_table", unbounded)
    result = least_core_value(domain)
    assert result.method == "exact-lp" and 0 < result.epsilon < 1
    assert least_core_value(domain, cap=29) == result
    assert max_excess(domain, result.imputation).max_excess == result.epsilon


def _least_core_programs(domain, form):
    """The least core by the rounds separated through ``form``, whatever the
    domain's regions, with the active coalitions of every restricted
    program it solved."""
    programs = []

    def recording(n, cuts, start):
        programs.append(tuple(cuts))
        return solve_exact(n, cuts, start)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "solve_exact", recording)
        result = stability._least_core_by_rounds(domain, form(domain),
                                                 enumeration.DEFAULT_ENUMERATION_CAP)
    return result.epsilon, result.imputation, result.method, programs


def test_least_core_past_the_cap_refuses_a_program_past_its_budget(monkeypatch):
    # 500 agents in 4 primary regions (the ``ecm500`` golden): one search
    # fits the query's budget, but the least core's rounds do not. Each is
    # charged its search's work and ENTRY_WORK a tableau entry; 27 rounds
    # fit and the 28th would pass the budget, so 27 programs are solved and
    # searched, and no table is built. 500 agents in 2 primary regions (the
    # ``leastcore500`` golden) are answered by one max-flow, charged nothing:
    # no program and no search.
    domain = domain_from_dict(json.loads((DATA / "ecm500_domain.json").read_text()))
    work = enumeration._Steiner(domain).work
    charges = [work + stability.ENTRY_WORK * cuts * (500 + cuts) for cuts in range(1, 29)]
    assert sum(charges[:27]) <= enumeration.WORK_BUDGET < sum(charges)
    programs, searches = [], []
    search = enumeration._Steiner.least_paid_winning

    def recording(n, cuts, start):
        programs.append(len(cuts))
        return solve_exact(n, cuts, start)

    def counting(self, scaled):
        searches.append(len(programs))
        return search(self, scaled)

    def unbounded(domain):
        raise AssertionError("a 2^500 win table was requested")

    monkeypatch.setattr(lp, "solve_exact", recording)
    monkeypatch.setattr(enumeration._Steiner, "least_paid_winning", counting)
    monkeypatch.setattr(enumeration, "win_table", unbounded)
    with pytest.raises(CapExceededError) as exc:
        least_core_value(domain)
    assert exc.value.cap == 24
    assert str(exc.value) == ("instance too large for exact solver: the least core of "
                              "500 agents needs more than 67108864 units of work past "
                              "the enumeration cap of 24")
    assert programs == searches == list(range(1, 28))
    programs.clear()
    searches.clear()
    two_regions = oracles.connected_graph_domain(random.Random(6), 500, n_edges=6312,
                                                 n_primary=2)
    result = least_core_value(two_regions)
    assert (result.epsilon, result.method) == (Fraction(21, 22), "exact-maxflow")
    assert programs == searches == []


def test_least_core_through_either_form_solves_the_same_programs():
    # Bench-style graphs (4 primaries, 1 backbone, edge density 1/4) of
    # 12-20 agents: the same cuts, so the same eps and imputation.
    for n in (12, 14, 16, 18, 20):
        rng = random.Random(1900 + n)
        checked = 0
        while checked < 2:
            domain = oracles.connected_graph_domain(rng, n, (n + 4) + (n + 5) * (n + 4) // 8)
            if classify(domain).degenerate or classify(domain).veto_wins:
                continue
            steiner = _least_core_programs(domain, enumeration._Steiner)
            assert steiner == _least_core_programs(domain, enumeration._Table), n
            checked += 1


@settings(max_examples=250, deadline=None)
@given(domain=st.one_of(strategies.domains(max_agents=12),
                        strategies.sparse_domains(max_agents=12),
                        strategies.symmetric_domains(max_agents=12)))
@example(domain=domain_from_dict(json.loads((DATA / "leastcore16_tie_domain.json").read_text())))
def test_least_core_through_either_form_solves_the_same_programs_on_drawn_domains(domain):
    # Both forms give the least (payment, size, mask) winning coalition, so
    # whichever the planner picks, the least core solves the same programs
    # and gives the same eps, imputation and method tag. The rounds run
    # where the veto set wins too, to eps = 0, and on two regions.
    assume(not classify(domain).degenerate)
    assert _least_core_programs(domain, enumeration._Steiner) == \
        _least_core_programs(domain, enumeration._Table)


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
        assert result.method == ("tree-closed-form" if unanimity else "exact-maxflow")
        assert result.epsilon == 1 - Fraction(1, kappa), (n, kappa)
        cuts[(n > 12) + (n > 16)].add(kappa)
    assert all(len(kappas) >= 3 for kappas in cuts.values())


def test_least_core_past_the_cap_with_two_primary_regions_is_one_minus_inverse_cut():
    # Menger, as above, at 25-96 agents: the Steiner oracle separates, and
    # the max-flow oracle gives kappa.
    rng = random.Random(2525)
    kappas = set()
    for n in (25, 25, 32, 48, 48, 64, 96):
        domain = oracles.two_region_domain(rng, n)
        kappa = oracles.min_agent_cut(domain)
        result = least_core_value(domain)
        assert result.epsilon == 1 - Fraction(1, kappa), (n, kappa)
        unanimity = oracles.reference_value(domain, oracles.essential_by_removal(domain))
        assert result.method == ("tree-closed-form" if unanimity else "exact-maxflow")
        kappas.add(kappa)
    assert len(kappas) >= 3


def _assert_flow_least_core(domain, epsilon):
    # The max-flow's least core has the reference eps, and pays 1/kappa to
    # each agent of a minimum cut: the cut's size is the oracle's kappa, and
    # everyone else, N minus the cut, loses.
    result = least_core_value(domain)
    assert (result.epsilon, result.method) == (epsilon, "exact-maxflow")
    cut = [i for i, share in enumerate(result.imputation) if share]
    kappa = oracles.min_agent_cut(domain)
    assert len(cut) == kappa and set(result.imputation) <= {0, Fraction(1, kappa)}
    assert oracles.reference_value(domain, set(range(domain.n_agents)) - set(cut)) == 0
    assert max_excess(domain, result.imputation).max_excess == epsilon


@st.composite
def _two_region_domains(draw, max_agents):
    """``oracles.two_region_domain`` draws whose veto set loses."""
    n = draw(st.integers(1, max_agents))
    domain = oracles.two_region_domain(random.Random(draw(st.integers(0, 2 ** 32))), n)
    assume(not classify(domain).veto_wins)
    return domain


@settings(max_examples=120, deadline=None)
@given(domain=_two_region_domains(16), form=st.sampled_from(["_Steiner", "_Table"]))
def test_least_core_by_max_flow_matches_the_rounds(domain, form):
    # Up to 16 agents, the rounds separated by either form give the same
    # eps as the max-flow.
    rounds = stability._least_core_by_rounds(domain, getattr(enumeration, form)(domain),
                                             enumeration.DEFAULT_ENUMERATION_CAP)
    assert rounds.method == "exact-lp"
    _assert_flow_least_core(domain, rounds.epsilon)


@settings(max_examples=60, deadline=None)
@given(domain=_two_region_domains(12))
def test_least_core_by_max_flow_matches_table_scan(domain):
    # Up to 12 agents, the eps of separation over all 2^n coalitions.
    _assert_flow_least_core(domain, oracles.least_core_by_table_scan(domain))


def test_least_core_by_max_flow_with_a_losing_veto_set():
    # region - a - {b | c} - d - region: a and d are veto, but lose without
    # b or c. kappa = 1, so eps = 0, and the cut nearest the first
    # primary's region is {a}; with the primaries swapped it is {d}.
    edges = ((0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5))
    for primary, paid in (((0, 5), 0), ((5, 0), 3)):
        domain = ConnectivityDomain(6, edges, primary, (), (1, 2, 3, 4))
        assert classify(domain).veto_agents == (0, 3) and not classify(domain).veto_wins
        result = least_core_value(domain)
        assert (result.epsilon, result.method) == (0, "exact-maxflow")
        assert result.imputation == tuple(Fraction(i == paid) for i in range(4))
        assert is_in_core(domain, result.imputation)


def test_least_core_memory_at_16_agents():
    # Four primary regions, so the rounds answer.
    domain = oracles.connected_graph_domain(random.Random(14), 16, n_edges=40)
    tracemalloc.start()
    try:
        result = least_core_value(domain)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (result.method, result.epsilon > 0) == ("exact-lp", True)
    assert peak < 2 ** 20
