import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import strategies
from conngames import (
    ApproxParams,
    CapExceededError,
    add_dummy,
    banzhaf_exact,
    banzhaf_mc,
    banzhaf_mc_all,
    classify,
    coalition_value,
    domain_to_dict,
    powerindex,
    setcover_to_cg,
    shapley_exact,
    shapley_mc,
    shapley_mc_all,
)

HALF = Fraction(1, 2)


def test_banzhaf_path3_sole_agent():
    assert banzhaf_exact(oracles.path3()).values == (Fraction(1),)


def test_banzhaf_cycle4():
    assert banzhaf_exact(oracles.cycle4()).values == (HALF, HALF)


def test_banzhaf_fig_style_construction_target():
    domain, target = setcover_to_cg(oracles.fig_style_setcover())
    # Oracle-derived: the instance has exactly 4 covers and 5 agents, so the
    # construction identity forces beta = 4 / 2^4.
    assert banzhaf_exact(domain).values[target] == Fraction(4, 16)


def test_shapley_path4_symmetric_split():
    assert shapley_exact(oracles.path4()).values == (HALF, HALF)


def test_shapley_cycle4():
    assert shapley_exact(oracles.cycle4()).values == (HALF, HALF)


def test_isolated_vertex_is_null_player():
    domain = add_dummy(oracles.path4())
    assert shapley_exact(domain).values[-1] == 0
    assert banzhaf_exact(domain).values[-1] == 0


def test_shapley_efficiency_exact():
    rng = random.Random(101)
    for _ in range(15):
        domain = oracles.random_graph_domain(rng, max_agents=7,
                                             require_nondegenerate=True)
        values = shapley_exact(domain).values
        assert sum(values, Fraction(0)) == 1


def test_indices_in_unit_interval():
    rng = random.Random(55)
    for _ in range(15):
        domain = oracles.random_graph_domain(rng, max_agents=6)
        for vector in (banzhaf_exact(domain), shapley_exact(domain)):
            assert all(0 <= v <= 1 for v in vector.values)


def test_banzhaf_against_subset_definition():
    rng = random.Random(7)
    for _ in range(12):
        domain = oracles.random_graph_domain(rng, max_agents=6)
        assert list(banzhaf_exact(domain).values) == oracles.banzhaf_definition(domain)


def test_shapley_against_permutation_enumeration():
    rng = random.Random(9)
    for _ in range(10):
        domain = oracles.random_graph_domain(rng, max_agents=6)
        assert list(shapley_exact(domain).values) == oracles.shapley_permutation(domain)


def test_symmetric_agents_equal_indices():
    for domain, i, j in ((oracles.cycle4(), 0, 1), (oracles.path4(), 0, 1)):
        assert banzhaf_exact(domain).values[i] == banzhaf_exact(domain).values[j]
        assert shapley_exact(domain).values[i] == shapley_exact(domain).values[j]


def test_cap_error_names_the_cap():
    with pytest.raises(CapExceededError) as info:
        banzhaf_exact(oracles.cycle4(), cap=1)
    assert "too large for exact solver" in str(info.value)
    assert "1" in str(info.value)
    with pytest.raises(CapExceededError):
        shapley_exact(oracles.cycle4(), cap=1)


def test_approx_params_sample_count():
    params = ApproxParams(0.05, 0.05, seed=1)
    assert params.samples == math.ceil(math.log(2 / 0.05) / (2 * 0.05 ** 2))
    assert ApproxParams(1.0, 0.99).samples >= 1
    for epsilon, delta in ((1e-160, 0.05), (1e-170, 0.05), (5e-324, 0.05), (0.05, 5e-324)):
        # The float bound overflows; the count is exact.
        exact = Fraction(math.log(2) - math.log(delta)) / (2 * Fraction(epsilon) ** 2)
        assert ApproxParams(epsilon, delta).samples == math.ceil(exact)


def test_approx_params_validation():
    with pytest.raises(ValueError):
        ApproxParams(0.0, 0.5)
    with pytest.raises(ValueError):
        ApproxParams(0.5, 0.0)
    with pytest.raises(ValueError):
        ApproxParams(0.5, 1.0)


@pytest.mark.parametrize("estimator", [banzhaf_mc_all, shapley_mc_all,
                                       lambda domain, params: banzhaf_mc(domain, 0, params)])
def test_mc_refuses_past_the_sample_bound_before_any_draw(estimator, monkeypatch):
    def no_draws(*args):
        raise AssertionError("a sample was drawn")

    monkeypatch.setattr(powerindex, "_banzhaf_draws", no_draws)
    monkeypatch.setattr(powerindex, "_shapley_draws", no_draws)
    for epsilon in (1e-6, 1e-170, 5e-324):
        with pytest.raises(CapExceededError, match="Monte Carlo run too large") as info:
            estimator(oracles.path3(), ApproxParams(epsilon, 0.05))
        assert info.value.cap == 2 ** (powerindex.DEFAULT_ENUMERATION_CAP - 1)


def test_mc_sample_bound_counts_every_agent(monkeypatch):
    # cycle4 has 2 agents: 2 x 738 samples run at a bound of 1476 and are
    # refused at 1475.
    params = ApproxParams(0.05, 0.05, seed=1)
    monkeypatch.setattr(powerindex, "_MC_SAMPLE_BOUND", 2 * params.samples)
    assert banzhaf_mc_all(oracles.cycle4(), params).samples == params.samples
    monkeypatch.setattr(powerindex, "_MC_SAMPLE_BOUND", 2 * params.samples - 1)
    with pytest.raises(CapExceededError):
        banzhaf_mc_all(oracles.cycle4(), params)


def test_banzhaf_mc_sole_connector_is_always_critical():
    params = ApproxParams(0.1, 0.1, seed=3)
    assert banzhaf_mc(oracles.path3(), 0, params) == 1.0


def test_banzhaf_mc_cycle4_close_to_half():
    estimate = banzhaf_mc(oracles.cycle4(), 0, ApproxParams(0.05, 0.01, seed=42))
    assert 0.45 <= estimate <= 0.55


def test_mc_on_degenerate_all_win_is_zero():
    domain = oracles.adjacent_primaries_domain()
    params = ApproxParams(0.2, 0.2, seed=0)
    assert banzhaf_mc(domain, 0, params) == 0.0
    assert shapley_mc(domain, 0, params) == 0.0


def test_shapley_mc_examples():
    params = ApproxParams(0.05, 0.01, seed=11)
    assert shapley_mc(oracles.path3(), 0, params) == 1.0
    estimate = shapley_mc(oracles.cycle4(), 0, params)
    assert 0.45 <= estimate <= 0.55
    dummy = add_dummy(oracles.path4())
    assert shapley_mc(dummy, 2, params) == 0.0


def test_mc_deterministic_given_seed():
    params = ApproxParams(0.1, 0.1, seed=99)
    domain = oracles.cycle4()
    assert banzhaf_mc(domain, 0, params) == banzhaf_mc(domain, 0, params)
    assert shapley_mc(domain, 1, params) == shapley_mc(domain, 1, params)
    v1 = banzhaf_mc_all(domain, params)
    v2 = banzhaf_mc_all(domain, params)
    assert v1.values == v2.values
    assert v1.samples == params.samples and v1.seed == 99
    assert shapley_mc_all(domain, params).values == shapley_mc_all(domain, params).values


def test_mc_vector_metadata():
    vector = banzhaf_mc_all(oracles.cycle4(), ApproxParams(0.2, 0.2, seed=5))
    assert vector.method == "monte-carlo"
    assert vector.samples is not None and vector.seed == 5
    assert len(vector.values) == 2


def test_add_dummy_path3():
    grown = add_dummy(oracles.path3())
    assert grown.n_agents == 2
    assert banzhaf_exact(grown).values == (Fraction(1), Fraction(0))


def test_add_dummy_preserves_exact_indices():
    base = oracles.cycle4()
    grown = add_dummy(base)
    assert banzhaf_exact(grown).values[:2] == banzhaf_exact(base).values
    assert shapley_exact(grown).values[:2] == shapley_exact(base).values
    assert banzhaf_exact(grown).values[2] == 0
    # twice: two trailing null players
    twice = add_dummy(grown)
    assert banzhaf_exact(twice).values[2:] == (Fraction(0), Fraction(0))
    # adding the dummy changes no coalition's value
    for mask in range(4):
        assert coalition_value(base, mask) == coalition_value(grown, mask)
        assert coalition_value(grown, mask | 4) == coalition_value(grown, mask)


# Hoeffding sample counts 3, 8, 18 and 31 at delta 0.5: mostly not multiples of 8.
MC_EPSILONS = [0.5, 0.3, 0.2, 0.15]


@pytest.mark.parametrize("block_bits", [3, powerindex._BLOCK_BITS])
@settings(max_examples=30, deadline=None)
@given(domain=strategies.sparse_domains(), epsilon=st.sampled_from(MC_EPSILONS),
       seed=st.integers(0, 2 ** 64), pick=st.integers(0, 10 ** 6))
def test_mc_matches_scalar_reference(block_bits, domain, epsilon, seed, pick):
    # 2^3-coalition blocks hold 4 samples, so agents straddle blocks and a
    # block holds the end of one agent's samples and the start of the next.
    params = ApproxParams(epsilon, 0.5, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(powerindex, "_BLOCK_BITS", block_bits)
        for kind, all_agents, one_agent, reference in (
                ("banzhaf", banzhaf_mc_all, banzhaf_mc, oracles.banzhaf_mc_scalar),
                ("shapley", shapley_mc_all, shapley_mc, oracles.shapley_mc_scalar)):
            vector = all_agents(domain, params)
            assert list(vector.values) == oracles.mc_all_scalar(domain, params, kind)
            assert (vector.samples, vector.seed) == (params.samples, seed)
            if domain.n_agents:
                agent = pick % domain.n_agents
                assert one_agent(domain, agent, params) == reference(domain, agent, params)


@pytest.mark.parametrize("n_agents", [33, 64, 65, 70])
def test_mc_matches_scalar_reference_past_64_agents(n_agents):
    domain = oracles.connected_graph_domain(random.Random(n_agents), n_agents,
                                            n_edges=3 * n_agents // 2)
    params = ApproxParams(0.15, 0.5, seed=n_agents)
    for kind, estimator in (("banzhaf", banzhaf_mc_all), ("shapley", shapley_mc_all)):
        expected = oracles.mc_all_scalar(domain, params, kind)
        assert any(0 < value < 1 for value in expected)
        for block_bits in (3, powerindex._BLOCK_BITS):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(powerindex, "_BLOCK_BITS", block_bits)
                assert list(estimator(domain, params).values) == expected


def test_single_agent_mc_rejects_out_of_range_agent():
    params = ApproxParams(0.2, 0.2, seed=1)
    for estimator in (banzhaf_mc, shapley_mc):
        for agent in (-1, 2):
            with pytest.raises(ValueError, match="out of range"):
                estimator(oracles.cycle4(), agent, params)


@pytest.mark.parametrize("estimator", [banzhaf_mc_all, shapley_mc_all])
def test_mc_memory_stays_flat_in_the_sample_count(estimator):
    # m = 4612 samples per agent, about 440k coalitions: the blocks are
    # reused, so nothing held grows with m.
    domain = oracles.connected_graph_domain(random.Random(48), 48, n_edges=72)
    params = ApproxParams(0.02, 0.05, seed=3)
    assert params.samples == 4612
    tracemalloc.start()
    try:
        estimator(domain, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def test_mc_run_does_not_load_openssl(tmp_path):
    path = tmp_path / "cycle4.json"
    path.write_text(json.dumps(domain_to_dict(oracles.cycle4())), encoding="utf-8")
    script = ("import sys\n"
              "from conngames.cli import main\n"
              f"assert main(['indices', {str(path)!r}, '--method', 'mc']) == 0\n"
              "print('_hashlib' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(powerindex.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines()[-1] == "False"


@pytest.mark.parametrize("n_agents, n_edges, seed, bound_mb", [(18, 85, 26, 4), (24, 120, 24, 16)])
def test_exact_indices_memory(n_agents, n_edges, seed, bound_mb):
    # The packed win table included (2^(n-3) bytes, 2 MB at 24 agents). The
    # reductions allocate no 2^n-entry array; a table of 2^n bools would
    # break the bound (28 MB at 24 agents).
    domain = oracles.connected_graph_domain(random.Random(seed), n_agents, n_edges=n_edges)
    assert not classify(domain).degenerate
    tracemalloc.start()
    try:
        banzhaf_exact(domain)
        shapley_exact(domain)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 2 ** 20
