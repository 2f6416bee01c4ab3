import random
from fractions import Fraction

import pytest

import oracles
from conngames import (
    CapExceededError,
    SetCoverInstance,
    VertexCoverInstance,
    banzhaf_exact,
    classify,
    coalition_value,
    count_set_covers,
    ecm,
    max_excess,
    min_vertex_cover,
    setcover_from_dict,
    setcover_to_cg,
    setcover_to_dict,
    validate,
    vertexcover_from_dict,
    vertexcover_to_dict,
    vertexcover_to_ecm,
)


# ----------------------------------------------------------- set cover

def test_count_set_covers_fig_style():
    # Items 1 and 3 force the two large sets, whose union is the universe,
    # so the covers are exactly the 4 supersets of that pair.
    assert count_set_covers(oracles.fig_style_setcover()) == 4


def test_count_set_covers_trivia():
    assert count_set_covers(SetCoverInstance(3, ((0, 1, 2),))) == 1
    assert count_set_covers(SetCoverInstance(2, ((0,), (0,)))) == 0  # item 1 uncovered
    assert count_set_covers(SetCoverInstance(0, ((), ()))) == 4  # empty universe


def test_count_set_covers_cap():
    instance = SetCoverInstance(1, tuple((0,) for _ in range(25)))
    with pytest.raises(CapExceededError):
        count_set_covers(instance)


def test_setcover_instance_flags_uncovered():
    instance = SetCoverInstance(3, ((0,), (1,)))
    assert instance.uncovered_items() == (2,)
    assert oracles.fig_style_setcover().uncovered_items() == ()


def test_setcover_construction_shape():
    domain, target = setcover_to_cg(oracles.fig_style_setcover())
    assert domain.vertex_count == 11
    assert domain.n_agents == 5
    assert target == 4
    assert validate(domain).ok
    assert domain.backbone == ()
    # clique over the four set vertices and the connector agent
    clique = {(u, v) for u in range(5) for v in range(u + 1, 5)}
    assert clique <= set(domain.edges)


def test_setcover_winning_iff_cover():
    instance = oracles.fig_style_setcover()
    domain, target = setcover_to_cg(instance)
    n_sets = len(instance.sets)
    universe = set(range(instance.universe_size))
    for mask in range(1 << domain.n_agents):
        covered = set()
        for s in range(n_sets):
            if mask >> s & 1:
                covered.update(instance.sets[s])
        expected = bool(mask >> target & 1) and covered == universe
        assert coalition_value(domain, mask) == int(expected)


def test_setcover_identity_random_instances():
    rng = random.Random(12)
    for _ in range(25):
        instance = oracles.random_setcover(rng, max_sets=6, max_items=6)
        domain, target = setcover_to_cg(instance)
        beta = banzhaf_exact(domain).values[target]
        assert count_set_covers(instance) == beta * (1 << (domain.n_agents - 1))


def test_setcover_single_set_beta():
    domain, target = setcover_to_cg(SetCoverInstance(3, ((0, 1, 2),)))
    assert banzhaf_exact(domain).values[target] == Fraction(1, 2)


def test_setcover_empty_universe_degenerate():
    domain, _ = setcover_to_cg(SetCoverInstance(0, ((), ())))
    assert classify(domain).degenerate_all_win


def test_setcover_uncovered_item_identity_still_holds():
    instance = SetCoverInstance(2, ((0,), (0,)))
    domain, target = setcover_to_cg(instance)
    assert classify(domain).degenerate_all_lose
    beta = banzhaf_exact(domain).values[target]
    assert beta == 0
    assert count_set_covers(instance) == 0


def test_setcover_json_roundtrip():
    instance = oracles.fig_style_setcover()
    assert setcover_from_dict(setcover_to_dict(instance)) == instance
    with pytest.raises(ValueError):
        setcover_from_dict({"universe": 2})


# ----------------------------------------------------------- vertex cover

def test_min_vertex_cover_trivia():
    assert min_vertex_cover(oracles.k3_instance(0)) == 2
    assert min_vertex_cover(VertexCoverInstance(2, ((0, 1),), 0)) == 1
    assert min_vertex_cover(VertexCoverInstance(3, (), 0)) == 0


def test_min_vertex_cover_cap():
    with pytest.raises(CapExceededError):
        min_vertex_cover(VertexCoverInstance(25, ((0, 1), (1, 2)), 0))


def test_vertexcover_construction_shape():
    domain, payoffs, epsilon = vertexcover_to_ecm(oracles.k3_instance(2))
    assert domain.vertex_count == 7
    assert domain.n_agents == 3
    assert len(domain.primary) == 3
    assert len(domain.backbone) == 1
    assert validate(domain).ok
    assert payoffs == (Fraction(1, 3),) * 3
    assert epsilon == Fraction(1, 3)


def test_vertexcover_winning_iff_cover():
    instance = oracles.k3_instance(2)
    domain, _, _ = vertexcover_to_ecm(instance)
    for mask in range(1 << 3):
        chosen = {i for i in range(3) if mask >> i & 1}
        covers = all(u in chosen or v in chosen for u, v in instance.edges)
        assert coalition_value(domain, mask) == int(covers)


def test_vertexcover_max_excess_identity_random():
    rng = random.Random(21)
    for _ in range(20):
        instance = oracles.random_vc_instance(rng, max_vertices=6)
        domain, payoffs, _ = vertexcover_to_ecm(instance)
        tau = min_vertex_cover(instance)
        n = instance.vertex_count
        assert max_excess(domain, payoffs).max_excess == 1 - Fraction(tau, n)


def test_vertexcover_ecm_threshold_examples():
    # Path u - w - x: the middle vertex covers both edges.
    path = VertexCoverInstance(3, ((0, 1), (1, 2)), threshold=1)
    domain, payoffs, epsilon = vertexcover_to_ecm(path)
    assert min_vertex_cover(path) == 1
    assert max_excess(domain, payoffs).max_excess == Fraction(2, 3)
    assert epsilon == Fraction(2, 3)
    assert ecm(domain, payoffs, epsilon)

    # Triangle with threshold 2: minimum cover size is exactly the threshold.
    domain, payoffs, epsilon = vertexcover_to_ecm(oracles.k3_instance(2))
    assert ecm(domain, payoffs, epsilon)
    # Tightening below 1 - tau/n must fail.
    assert not ecm(domain, payoffs, Fraction(1, 3) - Fraction(1, 100))


def test_vertexcover_ecm_verdict_tracks_cover_size():
    # The equal imputation lies in the (1 - t/n)-core iff no cover smaller
    # than t exists: max excess 1 - tau/n <= 1 - t/n iff tau >= t.
    rng = random.Random(34)
    for _ in range(10):
        instance = oracles.random_vc_instance(rng, max_vertices=6)
        domain, payoffs, _ = vertexcover_to_ecm(instance)
        tau = min_vertex_cover(instance)
        n = instance.vertex_count
        for t in range(n + 1):
            assert ecm(domain, payoffs, 1 - Fraction(t, n)) == (tau >= t)


def test_vertexcover_threshold_past_the_vertex_count_is_refused():
    # t = 5 on 3 vertices would give epsilon = 1 - 5/3 = -2/3, which ecm refuses.
    with pytest.raises(ValueError, match="threshold t = 5 exceeds the 3 vertices"):
        vertexcover_to_ecm(VertexCoverInstance(3, ((0, 1), (1, 2)), 5))
    _, _, epsilon = vertexcover_to_ecm(VertexCoverInstance(3, ((0, 1), (1, 2)), 3))
    assert epsilon == 0


def test_vertexcover_few_edges_warns():
    with pytest.warns(UserWarning):
        vertexcover_to_ecm(VertexCoverInstance(2, ((0, 1),), 1))
    with pytest.warns(UserWarning):
        vertexcover_to_ecm(VertexCoverInstance(2, (), 0))


def test_vertexcover_instance_validation():
    with pytest.raises(ValueError):
        VertexCoverInstance(2, ((0, 0),), 0)
    with pytest.raises(ValueError):
        VertexCoverInstance(2, ((0, 1), (1, 0)), 0)
    with pytest.raises(ValueError):
        VertexCoverInstance(2, ((0, 5),), 0)


def test_vertexcover_json_roundtrip():
    instance = oracles.k3_instance(1)
    assert vertexcover_from_dict(vertexcover_to_dict(instance)) == instance
    with pytest.raises(ValueError):
        vertexcover_from_dict({"vertices": 2, "edges": []})
