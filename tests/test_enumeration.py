import random
import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import strategies
from conngames import (
    CapExceededError,
    ConnectivityDomain,
    VertexCoverInstance,
    banzhaf_exact,
    classify,
    coalition_value,
    enumeration,
    is_critical,
    max_excess,
    shapley_exact,
    vertexcover_to_ecm,
    veto_players,
)
from conngames.enumeration import (
    criticality_histograms,
    criticality_size_counts,
    minimal_winning_masks,
    win_table,
)


def _pack(table) -> np.ndarray:
    """A table of 2^n bools in the packed format of ``win_table``."""
    return np.packbits(np.asarray(table, dtype=bool), bitorder="little")


def _unpack(win: np.ndarray, n: int) -> list[bool]:
    """The 2^n entries of a packed table as bools; its padding must be clear."""
    bits = np.unpackbits(win, bitorder="little").view(bool)
    assert win.dtype == np.uint8 and win.size == max(1, (1 << n) >> 3)
    assert not bits[1 << n:].any()
    return bits[:1 << n].tolist()


def test_win_table_matches_reference_on_named_domains():
    for domain in (oracles.path3(), oracles.path4(), oracles.cycle4(),
                   oracles.star_domain(), oracles.path3_with_leaf(),
                   oracles.single_primary_domain(), oracles.all_lose_domain()):
        assert _unpack(win_table(domain), domain.n_agents) == \
            [bool(v) for v in oracles.reference_table(domain)]


def test_win_table_matches_reference_on_random_domains():
    rng = random.Random(77)
    for _ in range(30):
        domain = oracles.random_graph_domain(rng, max_agents=7)
        assert _unpack(win_table(domain), domain.n_agents) == \
            [bool(v) for v in oracles.reference_table(domain)]


def test_win_table_on_a_domain_past_62_vertices():
    # A 70-vertex domain: a path padded with isolated backbones.
    domain = ConnectivityDomain(
        70, ((0, 1), (1, 2)), primary=(0, 2), backbone=tuple(range(3, 70)),
        standard=(1,))
    assert domain.vertex_count > 62
    assert _unpack(win_table(domain), 1) == [False, True]


@pytest.mark.parametrize("chunk_bits", [3, enumeration._CHUNK_BITS])
@settings(max_examples=150, deadline=None)
@given(domain=strategies.domains())
def test_win_table_matches_scalar_evaluator(chunk_bits, domain):
    # 3-bit blocks split n > 3 into blocks with fixed high agents, and pad
    # n < 3 into a partly used byte.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "_CHUNK_BITS", chunk_bits)
        table = win_table(domain)
    assert not table.flags.writeable
    assert _unpack(table, domain.n_agents) == [bool(v) for v in oracles.reference_table(domain)]


@settings(max_examples=100, deadline=None)
@given(domain=st.one_of(strategies.domains(), strategies.sparse_domains()), data=st.data())
def test_batched_kernel_matches_scalar_evaluator(domain, data):
    # The kernel on a drawn batch, and each question that runs it on a batch
    # of its own, against the set-based reference. The drawn domains include
    # ones padded past 62 vertices and ones with 0-2 agents.
    n = domain.n_agents
    masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=40))

    def reference(mask):
        return oracles.reference_mask_value(domain, mask)

    expected = [reference(mask) for mask in masks]
    usable = [sum((mask >> i & 1) << t for t, mask in enumerate(masks)) for i in range(n)]
    wins = domain._win_bits(usable, (1 << len(masks)) - 1)
    assert [wins >> t & 1 for t in range(len(masks))] == expected
    assert [coalition_value(domain, mask) for mask in masks] == expected
    for mask, value in zip(masks, expected):
        if mask:
            low = mask & -mask  # the lowest member
            critical = value == 1 and reference(mask ^ low) == 0
            assert is_critical(domain, low.bit_length() - 1, mask) == critical
    grand = (1 << n) - 1
    classification = classify(domain)
    assert classification.degenerate_all_win == (reference(0) == 1)
    assert classification.degenerate_all_lose == (reference(grand) == 0)
    assert veto_players(domain).veto_agents == \
        tuple(i for i in range(n) if reference(grand ^ (1 << i)) == 0)


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
    # Parity game: C wins iff |C| is odd, so every member of an odd-sized
    # coalition is critical, and agent i's histogram is C(n-1, s-1) at odd s.
    for n in range(13):
        table = np.array([bin(m).count("1") % 2 == 1 for m in range(1 << n)])
        expected = [comb(n - 1, s - 1) if s % 2 else 0 for s in range(n + 1)]
        hist = criticality_size_counts(_pack(table), n)
        assert hist.shape == (n, n + 1)
        assert all(row == expected for row in hist.tolist())
        assert hist.sum() == (n << (n - 2) if n >= 2 else n)


def test_criticality_counts_against_definition():
    # The Banzhaf counts are the histograms' row sums.
    rng = random.Random(13)
    for _ in range(20):
        domain = oracles.random_graph_domain(rng, max_agents=6)
        n = domain.n_agents
        table = _unpack(win_table(domain), n)
        expected = []
        for agent in range(n):
            bit = 1 << agent
            expected.append(sum(
                1 for mask in range(1 << n)
                if mask & bit and table[mask] and not table[mask ^ bit]))
        assert criticality_size_counts(win_table(domain), n).sum(axis=1).tolist() == expected


def test_criticality_size_counts_against_definition():
    rng = random.Random(17)
    for _ in range(10):
        domain = oracles.random_graph_domain(rng, max_agents=6)
        n = domain.n_agents
        table = _unpack(win_table(domain), n)
        got = criticality_size_counts(win_table(domain), n)
        for agent in range(n):
            bit = 1 << agent
            expected = [0] * (n + 1)
            for mask in range(1 << n):
                if mask & bit and table[mask] and not table[mask ^ bit]:
                    expected[bin(mask).count("1")] += 1
            assert got[agent].tolist() == expected


def _histograms_by_definition(table, n):
    sizes = [bin(mask).count("1") for mask in range(1 << n)]
    out = [[0] * (n + 1) for _ in range(n)]
    for agent in range(n):
        bit = 1 << agent
        for mask in range(1 << n):
            if mask & bit and table[mask] and not table[mask ^ bit]:
                out[agent][sizes[mask]] += 1
    return out


def _drawn_table(n, seed, density, monotone) -> np.ndarray:
    """2^n bools: a weighted threshold game, or independent draws."""
    rng = np.random.default_rng(seed)
    if monotone:
        weights = rng.integers(0, 5, n)
        sums = np.array([sum(int(w) for i, w in enumerate(weights) if m >> i & 1)
                         for m in range(1 << n)])
        return sums >= density * weights.sum()
    return rng.random(1 << n) < density


_ANY_TABLE = dict(n=st.integers(0, 12), seed=st.integers(0, 2 ** 32 - 1),
                  density=st.sampled_from([0.0, 0.05, 0.5, 0.95, 1.0]),
                  monotone=st.booleans())


@pytest.mark.parametrize("chunk_bits", [3, enumeration._CHUNK_BITS])
@settings(max_examples=60, deadline=None)
@given(**_ANY_TABLE)
def test_criticality_size_counts_match_definition_on_any_table(chunk_bits, n, seed,
                                                                density, monotone):
    # Arbitrary tables, not only games: n < 3 leaves a partly used byte, and
    # n = 12 has byte indices past 255 (popcounts up to 9). 3-bit chunks split
    # the counting of n >= 7 into several calls.
    table = _drawn_table(n, seed, density, monotone)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "_CHUNK_BITS", chunk_bits)
        got = criticality_size_counts(_pack(table), n)
    assert got.shape == (n, n + 1)
    assert got.tolist() == _histograms_by_definition(table.tolist(), n)


def test_criticality_histograms_cached_per_domain():
    domain = oracles.cycle4()
    hist = criticality_histograms(domain)
    assert hist is criticality_histograms(domain)
    assert not hist.flags.writeable
    assert hist.tolist() == criticality_size_counts(win_table(domain), 2).tolist()


def test_minimal_winning_masks_against_definition():
    rng = random.Random(19)
    for _ in range(20):
        domain = oracles.random_graph_domain(rng, max_agents=9)
        n = domain.n_agents
        table = _unpack(win_table(domain), n)
        dual = [not v for v in table[::-1]]  # C wins the dual game iff its complement loses
        for game in (table, dual):
            expected = [mask for mask in range(1 << n) if game[mask] and all(
                not game[mask ^ (1 << i)] for i in range(n) if mask >> i & 1)]
            assert minimal_winning_masks(_pack(game), n).tolist() == expected


@settings(max_examples=80, deadline=None)
@given(**_ANY_TABLE)
def test_minimal_masks_match_definition_on_any_table(n, seed, density, monotone):
    # Arbitrary tables, not only games, down to the partly used byte of n < 3.
    table = _drawn_table(n, seed, density, monotone).tolist()
    minimal = [mask for mask in range(1 << n) if table[mask] and all(
        not table[mask ^ 1 << i] for i in range(n) if mask >> i & 1)]
    assert minimal_winning_masks(_pack(table), n).tolist() == minimal


@settings(max_examples=60, deadline=None)
@given(domain=strategies.domains(), data=st.data())
def test_relabelling_agents_permutes_every_answer(domain, data):
    # Agent j of the relabelled domain owns the vertex of agent perm[j]. A
    # permutation moves agents between the in-byte (i < 3) and run (i >= 3)
    # cases of every packed pass.
    n = domain.n_agents
    perm = data.draw(st.permutations(range(n)))
    relabelled = ConnectivityDomain(domain.vertex_count, domain.edges, domain.primary,
                                    domain.backbone, tuple(domain.standard[k] for k in perm))

    def moved(mask):
        return sum(1 << j for j, k in enumerate(perm) if mask >> k & 1)

    for exact in (banzhaf_exact, shapley_exact):
        values = exact(domain).values
        assert exact(relabelled).values == tuple(values[k] for k in perm)
    assert minimal_winning_masks(win_table(relabelled), n).tolist() == \
        sorted(moved(m) for m in minimal_winning_masks(win_table(domain), n).tolist())
    if n:
        total = 0 if classify(domain).degenerate_all_lose else 1
        payoffs = data.draw(strategies.payoffs(n, total))
        assert max_excess(relabelled, [payoffs[k] for k in perm],
                          allow_negative=True).max_excess == \
            max_excess(domain, payoffs, allow_negative=True).max_excess


# ---------------------------------------------------------------- Steiner oracle

@st.composite
def _backbone_joined_domains(draw, max_agents: int = 14) -> ConnectivityDomain:
    """A random domain whose first two primaries are also joined by a new
    chain of backbones, so the oracle counts them as one terminal."""
    domain = draw(strategies.domains(max_agents=max_agents, wide=False))
    if len(domain.primary) < 2:
        return domain
    size = domain.vertex_count
    chain = tuple(range(size, size + draw(st.integers(1, 2))))
    path = (domain.primary[0], *chain, domain.primary[1])
    return ConnectivityDomain(size + len(chain), domain.edges + tuple(zip(path, path[1:])),
                              domain.primary, domain.backbone + chain, domain.standard)


@st.composite
def _vertexcover_domains(draw) -> ConnectivityDomain:
    """The covering game of a graph of 2-6 edges: one primary per edge."""
    n = draw(st.integers(3, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=2, max_size=6, unique=True))
    return vertexcover_to_ecm(VertexCoverInstance(n, tuple(edges), 1))[0]


@settings(max_examples=250, deadline=None)
@given(domain=st.one_of(strategies.domains(max_agents=16, wide=False),
                        strategies.sparse_domains(max_agents=16),
                        strategies.symmetric_domains(max_agents=16),
                        strategies.unanimity_domains(),
                        _backbone_joined_domains(), _vertexcover_domains()),
       data=st.data())
def test_steiner_least_paid_winning_matches_the_minimal_winning_scan(domain, data):
    # The least (payment, size, mask) winning coalition, with its payment, as
    # scored in Fractions over the table's minimal winning coalitions joined
    # with the negatively paid agents, or None where no coalition wins. The
    # forms take the payoffs scaled to ints and give the payment scaled the
    # same way. Payoffs are mixed draws, or their magnitudes: zeros, ties,
    # float-derived and huge denominators.
    n = domain.n_agents
    payoffs = data.draw(strategies.payoffs(n))
    if data.draw(st.booleans()):
        payoffs = [abs(x) for x in payoffs]
    free = sum(1 << i for i, x in enumerate(payoffs) if x < 0)
    minimal = minimal_winning_masks(win_table(domain), n).tolist()
    scored = [(sum((x for i, x in enumerate(payoffs) if m >> i & 1), Fraction(0)),
               m.bit_count(), m) for m in (m | free for m in minimal)]
    scale, scaled = enumeration._scaled(payoffs)
    expected = None
    if scored:
        payment, _, mask = min(scored)
        expected = (mask, payment * scale)
    assert enumeration._Steiner(domain).least_paid_winning(scaled) == expected
    game = enumeration._exact_game(domain, 16, separates=True)
    assert game.least_paid_winning(scaled) == expected


@pytest.mark.parametrize("domain", [
    oracles.adjacent_primaries_domain(),
    oracles.single_primary_domain(),
    ConnectivityDomain(3, ((0, 2),), primary=(), backbone=(1,), standard=(0, 2)),
    oracles.all_lose_domain(),
], ids=["all-win", "one-primary", "no-primary", "all-lose"])
def test_steiner_oracle_on_degenerate_domains(domain):
    # Every coalition wins (the empty one is least paid) or none does.
    payoffs = [Fraction(1, max(1, domain.n_agents))] * domain.n_agents
    expected = None if classify(domain).degenerate_all_lose else (0, 0)
    _, scaled = enumeration._scaled(payoffs)
    assert enumeration._Steiner(domain).least_paid_winning(scaled) == expected


def _bench_graph(seed: int, n: int) -> ConnectivityDomain:
    """A non-degenerate graph of 4 primaries and 1 backbone whose veto set
    loses, with edge density about 1/4, as the benchmark draws them."""
    rng = random.Random(seed)
    while True:
        domain = oracles.connected_graph_domain(rng, n, (n + 4) + (n + 5) * (n + 4) // 8)
        if not (classify(domain).degenerate or classify(domain).veto_wins):
            return domain


@pytest.mark.parametrize("domain, cap, separates, form", [
    (_bench_graph(14, 14), 24, True, "_Steiner"),
    (_bench_graph(14, 14), 24, False, "_Table"),
    (_bench_graph(16, 16), 24, True, "_Steiner"),
    (_bench_graph(22, 22), 24, True, "_Steiner"),
    (_bench_graph(1, 10), 24, True, "_Table"),
    (vertexcover_to_ecm(VertexCoverInstance(
        12, tuple((u, v) for u in range(12) for v in range(u + 1, 12) if (u + v) % 3 == 0),
        6))[0], 24, True, "_Table"),
    (oracles.connected_graph_domain(random.Random(30), 30, n_edges=70), 24, True, "_Steiner"),
    (oracles.connected_graph_domain(random.Random(30), 30, n_edges=70), 24, False, None),
    (oracles.many_primaries_domain(), 24, True, None),
    (oracles.many_primaries_domain(), 30, True, "_Table"),
    (oracles.lollipop(3), 0, True, "_Unanimity"),
], ids=["ecm-14", "indices-14", "leastcore-16", "leastcore-22", "leastcore-table",
        "ecm-vertexcover", "ecm-past-cap", "indices-past-cap", "ecm-past-budget",
        "ecm-past-budget-under-cap", "unanimity"])
def test_exact_game_picks_the_form_by_its_cost_estimate(domain, cap, separates, form):
    # One rule for maximal excess and the least core alike: under the cap the
    # oracle answers where one search's work, 3^k (V + E) for k primary
    # regions, is at most the table's 2^n - 1 coalitions (not so for 10
    # agents in 3 regions, 1485 > 1023); past it, where that work fits the
    # budget, else exit 3.
    if form is None:
        with pytest.raises(CapExceededError):
            enumeration._exact_game(domain, cap, separates)
    else:
        assert type(enumeration._exact_game(domain, cap, separates)).__name__ == form
