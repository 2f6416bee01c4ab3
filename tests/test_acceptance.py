"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the assertions themselves enforce every stated tolerance and the
stated runtime budgets.
"""

import json
import random
import time
from fractions import Fraction

import numpy as np

import oracles
from conngames import (
    ConnectivityDomain,
    add_dummy,
    banzhaf_exact,
    banzhaf_mc,
    coalition_value,
    count_set_covers,
    domain_to_dict,
    ecm,
    is_in_core,
    least_core_value,
    max_excess,
    min_vertex_cover,
    setcover_to_cg,
    shapley_exact,
    vertexcover_to_ecm,
    veto_players,
)
from conngames.cli import main as cli_main
from conngames.powerindex import ApproxParams

HALF = Fraction(1, 2)


def test_criterion_1_tree_closed_forms():
    started = time.perf_counter()
    rng = random.Random(1001)
    for _ in range(200):
        domain = oracles.random_tree_domain(rng, max_agents=14)
        banzhaf, shapley = banzhaf_exact(domain), shapley_exact(domain)
        assert banzhaf.method == shapley.method == "tree-closed-form"
        assert (banzhaf.values, shapley.values) == oracles.table_indices(domain)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"tree closed-form sweep took {elapsed:.1f}s"
    print(f"\nacceptance criterion 1 (tree closed forms, 200 domains, "
          f"{elapsed:.1f}s): PASS")


def test_criterion_2_setcover_identity():
    started = time.perf_counter()
    fig = oracles.fig_style_setcover()
    assert count_set_covers(fig) == 4
    domain, target = setcover_to_cg(fig)
    assert banzhaf_exact(domain).values[target] * 2 ** (domain.n_agents - 1) == 4

    rng = random.Random(2002)
    for _ in range(100):
        instance = oracles.random_setcover(rng, max_sets=9, max_items=8)
        domain, target = setcover_to_cg(instance)
        beta = banzhaf_exact(domain).values[target]
        assert count_set_covers(instance) == beta * 2 ** (domain.n_agents - 1)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"set-cover identity sweep took {elapsed:.1f}s"
    print(f"acceptance criterion 2 (set-cover counting identity, 100 instances, "
          f"{elapsed:.1f}s): PASS")


def test_criterion_3_vertexcover_identity():
    started = time.perf_counter()
    rng = random.Random(3003)
    for _ in range(100):
        instance = oracles.random_vc_instance(rng, max_vertices=8)
        domain, payoffs, _ = vertexcover_to_ecm(instance)
        tau = min_vertex_cover(instance)
        n = instance.vertex_count
        assert max_excess(domain, payoffs).max_excess == 1 - Fraction(tau, n)
        # Equal imputation is in the (1 - t/n)-core iff 1 - tau/n <= 1 - t/n,
        # i.e. iff no cover smaller than t exists (tau >= t).
        for t in range(n + 1):
            assert ecm(domain, payoffs, 1 - Fraction(t, n)) == (tau >= t)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"vertex-cover identity sweep took {elapsed:.1f}s"
    print(f"acceptance criterion 3 (vertex-cover excess identity, 100 graphs, "
          f"{elapsed:.1f}s): PASS")


def _definitional_core_checker(domain):
    """All-coalitions core test p(C) >= v(C) - tol, straight from the definition."""
    n = domain.n_agents
    values = np.array([coalition_value(domain, m) for m in range(1 << n)],
                      dtype=np.float64)
    masks = np.arange(1 << n, dtype=np.int64)

    def check(payoffs, tol=1e-9):
        pay = np.zeros(len(masks))
        for i in range(n):
            p = float(payoffs[i])
            if p:
                pay += p * ((masks >> i) & 1)
        return bool(np.all(pay >= values - tol))

    return check


def test_criterion_4_core_characterization(corpus):
    rng = random.Random(4004)
    for name, domain in corpus:
        assert domain.n_agents <= 12, name
        assert veto_players(domain).veto_agents == \
            oracles.veto_enumeration(domain), name
        check = _definitional_core_checker(domain)
        for _ in range(50):
            payoffs = oracles.random_imputation(
                rng, domain.n_agents, allow_negative=rng.random() < 0.25)
            assert is_in_core(domain, payoffs) == check(payoffs), (name, payoffs)
    print(f"acceptance criterion 4 (core characterization, "
          f"{len(corpus)} domains x 50 imputations): PASS")


def test_criterion_5_tree_stability(tree_corpus):
    rng = random.Random(5005)
    tol = Fraction(1, 10 ** 9)
    for name, domain in tree_corpus:
        core = veto_players(domain)
        essential = oracles.essential_by_removal(domain)
        assert not core.is_empty, name
        assert core.veto_agents == essential, name

        result = least_core_value(domain)
        assert result.epsilon == 0, name
        assert result.method == "tree-closed-form", name

        if domain.n_agents <= 14:
            for _ in range(50):
                payoffs = oracles.random_imputation(rng, domain.n_agents)
                eps = rng.random()
                # The essential-payment test: the least-paid winning coalition
                # is the essential set, and the empty coalition has excess 0.
                shortfall = 1 - sum(Fraction(payoffs[i]) for i in essential)
                assert ecm(domain, payoffs, eps) == (shortfall <= Fraction(eps) + tol), \
                    (name, payoffs, eps)

        # Boundary convention: membership is non-strict at p(essential) = 1 - eps.
        dummies = [i for i in range(domain.n_agents) if i not in essential]
        if dummies:
            payoffs = [0.0] * domain.n_agents
            payoffs[essential[0]] = 0.75
            payoffs[dummies[0]] = 0.25
            assert ecm(domain, payoffs, 0.25), name
            assert not ecm(domain, payoffs, 0.25 - 1e-6), name
        assert ecm(domain, result.imputation, 0), name
    print(f"acceptance criterion 5 (tree stability, {len(tree_corpus)} trees): PASS")


def test_criterion_6_axioms(corpus):
    # Null players: isolated standard vertices get exactly zero.
    for base in (oracles.path4(), oracles.cycle4(),
                 setcover_to_cg(oracles.fig_style_setcover())[0]):
        grown = add_dummy(base)
        assert banzhaf_exact(grown).values[-1] == 0
        assert shapley_exact(grown).values[-1] == 0
        assert banzhaf_exact(grown).values[:-1] == banzhaf_exact(base).values
        assert shapley_exact(grown).values[:-1] == shapley_exact(base).values

    # Efficiency: exact Shapley values sum to the grand coalition's value.
    for name, domain in corpus:
        assert sum(shapley_exact(domain).values, Fraction(0)) == 1, name

    # Symmetry: automorphic standard-vertex pairs get equal exact indices.
    path5 = ConnectivityDomain(5, ((0, 1), (1, 2), (2, 3), (3, 4)),
                               primary=(0, 4), backbone=(), standard=(1, 2, 3))
    pairs = [(oracles.cycle4(), 0, 1), (oracles.path4(), 0, 1), (path5, 0, 2)]
    for domain, i, j in pairs:
        assert banzhaf_exact(domain).values[i] == banzhaf_exact(domain).values[j]
        assert shapley_exact(domain).values[i] == shapley_exact(domain).values[j]
    print("acceptance criterion 6 (null player, efficiency, symmetry axioms): PASS")


def test_criterion_7_mc_calibration():
    started = time.perf_counter()
    domain = oracles.cycle4()
    exact = banzhaf_exact(domain).values[0]
    assert exact == HALF
    runs = 200
    failures = 0
    for seed in range(runs):
        estimate = banzhaf_mc(domain, 0, ApproxParams(0.05, 0.05, seed=seed))
        if abs(estimate - float(exact)) > 0.05:
            failures += 1
    rate = failures / runs
    assert rate <= 0.10, f"failure rate {rate:.3f} exceeds delta + slack"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"calibration took {elapsed:.1f}s"
    print(f"acceptance criterion 7 (MC calibration, failure rate {rate:.3f}, "
          f"{elapsed:.1f}s): PASS")


def test_criterion_8_worked_values():
    cycle = oracles.cycle4()
    assert banzhaf_exact(cycle).values == (HALF, HALF)
    assert shapley_exact(cycle).values == (HALF, HALF)
    assert veto_players(cycle).is_empty
    cycle_lc = least_core_value(cycle)
    assert cycle_lc.epsilon == HALF
    assert cycle_lc.imputation == (HALF, HALF)

    path = oracles.path4()
    assert banzhaf_exact(path).values == (HALF, HALF)
    assert shapley_exact(path).values == (HALF, HALF)
    assert veto_players(path).veto_agents == (0, 1)
    assert least_core_value(path).epsilon == 0
    print("acceptance criterion 8 (worked exact values): PASS")


def test_criterion_9_cli_determinism(tmp_path, capsys):
    paths = {
        "path4": tmp_path / "path4.json",
        "cycle4": tmp_path / "cycle4.json",
        "half": tmp_path / "half.json",
        "k3": tmp_path / "k3.json",
    }
    paths["path4"].write_text(json.dumps(domain_to_dict(oracles.path4())))
    paths["cycle4"].write_text(json.dumps(domain_to_dict(oracles.cycle4())))
    paths["half"].write_text(json.dumps({"imputation": ["1/2", "1/2"]}))
    paths["k3"].write_text(json.dumps(
        {"vertices": 3, "edges": [[0, 1], [0, 2], [1, 2]], "t": 2}))

    invocations = [
        ["indices", str(paths["path4"])],
        ["indices", str(paths["cycle4"]), "--method", "exact", "--format", "json"],
        ["indices", str(paths["cycle4"]), "--method", "mc", "--seed", "5",
         "--format", "csv"],
        ["core", str(paths["path4"]), "--imputation", str(paths["half"]),
         "--format", "json"],
        ["ecm", str(paths["cycle4"]), str(paths["half"]), "--epsilon", "0.5",
         "--format", "json"],
        ["leastcore", str(paths["cycle4"]), "--format", "json"],
    ]
    for argv in invocations:
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert cli_main(argv) == 0
        assert capsys.readouterr().out == first, argv

    out_path = tmp_path / "generated.json"
    argv = ["generate", "vertexcover", str(paths["k3"]), "--out", str(out_path)]
    assert cli_main(argv) == 0
    capsys.readouterr()
    domain_blob = out_path.read_bytes()
    sidecar_blob = (tmp_path / "generated.imputation.json").read_bytes()
    assert cli_main(argv) == 0
    capsys.readouterr()
    assert out_path.read_bytes() == domain_blob
    assert (tmp_path / "generated.imputation.json").read_bytes() == sidecar_blob
    print("acceptance criterion 9 (CLI determinism): PASS")
