import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import strategies
from conngames import ConnectivityDomain, enumeration
from conngames.domain import _value_of_mask
from conngames.enumeration import (
    criticality_counts,
    criticality_size_counts,
    minimal_winning_masks,
    size_table,
    win_table,
)


def test_win_table_matches_reference_on_named_domains():
    for domain in (oracles.path3(), oracles.path4(), oracles.cycle4(),
                   oracles.star_domain(), oracles.path3_with_leaf(),
                   oracles.single_primary_domain(), oracles.all_lose_domain()):
        table = win_table(domain)
        assert table.tolist() == [bool(v) for v in oracles.reference_table(domain)]


def test_win_table_matches_reference_on_random_domains():
    rng = random.Random(77)
    for _ in range(30):
        domain = oracles.random_graph_domain(rng, max_agents=7)
        assert win_table(domain).tolist() == \
            [bool(v) for v in oracles.reference_table(domain)]


def test_win_table_python_fallback_for_wide_graphs():
    # 70 vertices exceeds the int64 lane; pad a path with isolated backbones.
    domain = ConnectivityDomain(
        70, ((0, 1), (1, 2)), primary=(0, 2), backbone=tuple(range(3, 70)),
        standard=(1,))
    assert domain.vertex_count > 62
    assert win_table(domain).tolist() == [False, True]


@pytest.mark.parametrize("chunk_bits", [3, enumeration._CHUNK_BITS])
@settings(max_examples=150, deadline=None)
@given(domain=strategies.domains())
def test_win_table_matches_scalar_evaluator(chunk_bits, domain):
    # 3-bit blocks split n > 3 into blocks with fixed high agents, and pad
    # n < 3 into a partly used byte.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "_CHUNK_BITS", chunk_bits)
        table = win_table(domain)
    expected = [bool(_value_of_mask(domain, m)) for m in range(1 << domain.n_agents)]
    assert table.tolist() == expected


@settings(max_examples=100, deadline=None)
@given(domain=st.one_of(strategies.domains(), strategies.sparse_domains()), data=st.data())
def test_batched_kernel_matches_scalar_evaluator(domain, data):
    n = domain.n_agents
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=40))
    members = np.array([[mask >> i & 1 for mask in masks] for i in range(n)],
                       dtype=np.uint8).reshape(n, len(masks))
    usable = np.packbits(members, axis=1, bitorder="little")
    wins = enumeration._win_bits_evaluator(domain)(usable, usable.shape[1])
    got = np.unpackbits(wins, count=len(masks), bitorder="little").tolist()
    assert got == [_value_of_mask(domain, mask) for mask in masks]


def test_win_table_memory_at_18_agents():
    domain = oracles.connected_graph_domain(random.Random(18), 18, n_edges=85)
    tracemalloc.start()
    try:
        win_table(domain)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


def test_win_table_cached_per_domain():
    domain = oracles.cycle4()
    assert win_table(domain) is win_table(domain)


def test_size_table():
    sizes = size_table(4)
    assert sizes.tolist() == [bin(m).count("1") for m in range(16)]


def test_criticality_counts_against_definition():
    rng = random.Random(13)
    for _ in range(20):
        domain = oracles.random_graph_domain(rng, max_agents=6)
        n = domain.n_agents
        table = win_table(domain)
        expected = []
        for agent in range(n):
            bit = 1 << agent
            expected.append(sum(
                1 for mask in range(1 << n)
                if mask & bit and table[mask] and not table[mask ^ bit]))
        assert criticality_counts(table, n) == expected


def test_criticality_size_counts_against_definition():
    rng = random.Random(17)
    for _ in range(10):
        domain = oracles.random_graph_domain(rng, max_agents=6)
        n = domain.n_agents
        table = win_table(domain)
        got = criticality_size_counts(table, n)
        for agent in range(n):
            bit = 1 << agent
            expected = [0] * (n + 1)
            for mask in range(1 << n):
                if mask & bit and table[mask] and not table[mask ^ bit]:
                    expected[bin(mask).count("1")] += 1
            assert got[agent].tolist() == expected


def test_minimal_winning_masks_against_definition():
    rng = random.Random(19)
    for _ in range(20):
        domain = oracles.random_graph_domain(rng, max_agents=9)
        n = domain.n_agents
        table = win_table(domain)
        dual = ~table[::-1]  # C wins the dual game iff its complement loses
        for game in (table, dual):
            expected = [mask for mask in range(1 << n) if game[mask] and all(
                not game[mask ^ (1 << i)] for i in range(n) if mask >> i & 1)]
            assert minimal_winning_masks(game, n).tolist() == expected
        maximal_losing = [mask for mask in range(1 << n) if not table[mask] and all(
            table[mask | 1 << i] for i in range(n) if not mask >> i & 1)]
        full = (1 << n) - 1
        assert sorted(full ^ m for m in minimal_winning_masks(dual, n).tolist()) == \
            maximal_losing
