import random

import pytest

import oracles
from conngames import (
    Coalition,
    ConnectivityDomain,
    InvalidDomainError,
    classify,
    coalition_value,
    domain_from_dict,
    domain_to_dict,
    is_critical,
    validate,
)


def test_validate_minimal_domain_ok():
    assert validate(oracles.path3()).ok


def test_validate_non_partition_label():
    domain = ConnectivityDomain(3, ((0, 1), (1, 2)), primary=(0, 2),
                                backbone=(1,), standard=(1,))
    report = validate(domain)
    assert not report.ok
    assert any("non-partition" in v for v in report.violations)


def test_validate_missing_label():
    domain = ConnectivityDomain(3, ((0, 1),), primary=(0,), backbone=(), standard=(1,))
    report = validate(domain)
    assert any("vertex 2 has no kind label" in v for v in report.violations)


def _unlabeled(v):
    return f"vertex {v} has no kind label (non-partition labels)"


def test_validate_names_up_to_ten_unlabeled_vertices_in_order():
    # Vertex 5 is labeled twice and sits among the unlabeled vertices 1-4, 6-11.
    twice = "vertex 5 labeled more than once (non-partition labels)"
    named = (*map(_unlabeled, range(1, 5)), twice, *map(_unlabeled, range(6, 12)))
    domain = ConnectivityDomain(13, (), primary=(0, 5), backbone=(5,), standard=(12,))
    assert validate(domain).violations == named
    domain = ConnectivityDomain(14, (), primary=(0, 5), backbone=(5,), standard=(12,))
    assert validate(domain).violations == named + (
        "... and 1 more vertices have no kind label (non-partition labels)",)


@pytest.mark.parametrize("vertices", [200000, 10 ** 12])
def test_validate_cost_follows_the_document_not_the_vertex_count(vertices):
    domain = ConnectivityDomain(vertices, (), primary=(0, 1), backbone=(), standard=(2,))
    assert validate(domain).violations == (
        *map(_unlabeled, range(3, 13)),
        f"... and {vertices - 13} more vertices have no kind label (non-partition labels)")


def test_validate_self_loop():
    domain = ConnectivityDomain(2, ((0, 0),), primary=(0,), backbone=(), standard=(1,))
    assert any("self-loop" in v for v in validate(domain).violations)


def test_validate_duplicate_edge():
    domain = ConnectivityDomain(3, ((0, 1), (1, 0), (1, 2)), primary=(0, 2),
                                backbone=(), standard=(1,))
    assert any("duplicate edge" in v for v in validate(domain).violations)


def test_validate_bad_edge_vertex():
    domain = ConnectivityDomain(2, ((0, 5),), primary=(0,), backbone=(), standard=(1,))
    assert any("unknown vertex" in v for v in validate(domain).violations)


def test_validate_non_bijective_agent_map():
    domain = ConnectivityDomain(3, ((0, 1),), primary=(0, 2), backbone=(),
                                standard=(1, 1))
    violations = validate(domain).violations
    assert any("bijection" in v for v in violations)


def test_solvers_reject_invalid_domain():
    domain = ConnectivityDomain(2, ((0, 0),), primary=(0,), backbone=(), standard=(1,))
    with pytest.raises(InvalidDomainError):
        coalition_value(domain, 0)


def test_coalition_value_path3():
    domain = oracles.path3()
    assert coalition_value(domain, Coalition.from_members([0], 1)) == 1
    assert coalition_value(domain, Coalition(0, 1)) == 0


def test_coalition_value_cycle4_single_agent():
    domain = oracles.cycle4()
    # Frozen from the set-based oracle: either standard vertex alone connects.
    assert oracles.reference_value(domain, [1]) == 1
    assert coalition_value(domain, Coalition.from_members([1], 2)) == 1


def test_coalition_value_single_primary_vacuous():
    assert coalition_value(oracles.single_primary_domain(), 0) == 1


def test_is_critical_examples():
    path3 = oracles.path3()
    assert is_critical(path3, 0, Coalition.from_members([0], 1))
    cycle = oracles.cycle4()
    assert not is_critical(cycle, 0, Coalition.from_members([0, 1], 2))
    assert is_critical(cycle, 0, Coalition.from_members([0], 2))


def test_is_critical_rejects_nonmember():
    with pytest.raises(ValueError):
        is_critical(oracles.cycle4(), 0, Coalition.from_members([1], 2))


@pytest.mark.parametrize("agent", [-1, 2])
def test_is_critical_rejects_out_of_range_agent(agent):
    with pytest.raises(ValueError, match="out of range"):
        is_critical(oracles.cycle4(), agent, Coalition(0b11, 2))


def test_classify_single_primary_all_win():
    c = classify(oracles.single_primary_domain())
    assert c.degenerate_all_win and not c.degenerate_all_lose


def test_classify_adjacent_primaries_merge():
    assert classify(oracles.adjacent_primaries_domain()).degenerate_all_win


def test_classify_path3_tree():
    c = classify(oracles.path3())
    assert (c.veto_agents, c.veto_wins) == ((0,), True)
    assert not c.degenerate_all_win and not c.degenerate_all_lose


def test_classify_all_lose():
    c = classify(oracles.all_lose_domain())
    assert c.degenerate_all_lose and not c.degenerate_all_win


def test_classify_cached_per_domain():
    domain = oracles.cycle4()
    assert classify(domain) is classify(domain)


def test_all_lose_every_subset_loses():
    domain = oracles.all_lose_domain()
    for mask in range(1 << domain.n_agents):
        assert coalition_value(domain, mask) == 0


def test_at_most_one_degeneracy_flag():
    rng = random.Random(5)
    for _ in range(50):
        domain = oracles.random_graph_domain(rng, max_agents=5)
        c = classify(domain)
        assert not (c.degenerate_all_win and c.degenerate_all_lose)


def test_monotonicity_sampled():
    rng = random.Random(11)
    for _ in range(20):
        domain = oracles.random_graph_domain(rng, max_agents=6)
        n = domain.n_agents
        for _ in range(20):
            a = rng.getrandbits(n) if n else 0
            b = rng.getrandbits(n) if n else 0
            assert coalition_value(domain, a | b) >= coalition_value(domain, a)


def test_value_ignores_edges_between_unusable_vertices():
    # Adding edge x-z between two standard vertices cannot change the value of
    # any coalition in which at least one endpoint stays unusable.
    with_edge = oracles.path3_with_leaf()
    without = ConnectivityDomain(4, ((0, 1), (1, 2)), primary=(0, 2), backbone=(),
                                 standard=(1, 3))
    for mask in range(4):
        if mask != 0b11:  # x (agent 0) or z (agent 1) missing: edge unusable
            assert coalition_value(with_edge, mask) == coalition_value(without, mask)


def test_coalition_roundtrip():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(0, 16)
        members = sorted(rng.sample(range(n), rng.randint(0, n)) if n else [])
        coalition = Coalition.from_members(members, n)
        assert list(coalition) == members
        assert coalition.members() == tuple(members)
        assert len(coalition) == len(members)
        for i in range(n):
            assert (i in coalition) == (i in members)


def test_coalition_mask_bounds():
    with pytest.raises(ValueError):
        Coalition(4, 2)
    with pytest.raises(ValueError):
        Coalition.from_members([2], 2)


def test_domain_json_roundtrip():
    domain = oracles.cycle4()
    data = domain_to_dict(domain)
    again = domain_from_dict(data)
    assert again == domain


def test_domain_json_ignores_extra_keys():
    data = domain_to_dict(oracles.path3())
    data["meta"] = {"anything": 1}
    assert domain_from_dict(data) == oracles.path3()


def test_domain_json_malformed():
    with pytest.raises(ValueError):
        domain_from_dict({"vertices": 3})
    with pytest.raises(ValueError):
        domain_from_dict([1, 2, 3])


@pytest.mark.parametrize("field, value", [
    ("vertices", True),
    ("vertices", 3.0),
    ("vertices", "3"),
    ("edges", [[0, 1.7]]),
    ("edges", [[True, 2]]),
    ("primary", [0, 1.5]),
    ("backbone", [None]),
    ("standard", [False]),
])
def test_domain_json_rejects_non_integers(field, value):
    data = domain_to_dict(oracles.path3())
    data[field] = value
    with pytest.raises(ValueError, match=f"{field}: expected an integer"):
        domain_from_dict(data)


def test_validate_lists_every_violation_in_document_order():
    # The edge list is checked in the one walk that builds the domain, from a
    # document or by the constructor; its violations follow the labels' in
    # edge order.
    data = {"vertices": 4, "edges": [[0, 1], [2, 2], [1, 0], [0, 9], [3, 1], [1, 3]],
            "primary": [0, 7], "backbone": [], "standard": [1, 1, 3]}
    expected = (
        "primary label references unknown vertex 7",
        "vertex 1 labeled more than once (non-partition labels)",
        "vertex 2 has no kind label (non-partition labels)",
        "agent map is not a bijection: repeated standard vertex",
        "edge (2, 2) is a self-loop",
        "duplicate edge (0, 1)",
        "edge (0, 9) references an unknown vertex",
        "duplicate edge (1, 3)",
    )
    built = ConnectivityDomain(data["vertices"], data["edges"], data["primary"],
                               data["backbone"], data["standard"])
    for domain in (domain_from_dict(data), built):
        assert validate(domain).violations == expected
        assert domain.edges == ((0, 1), (2, 2), (1, 0), (0, 9), (3, 1), (1, 3))
    assert domain_from_dict(data) == built


@pytest.mark.parametrize("entry", [[0, 2, 1], [0], 5, None])
def test_edge_entry_that_is_not_a_pair_names_the_field(entry):
    data = domain_to_dict(oracles.path3())
    data["edges"] = [[0, 1], entry]
    message = f"edges: expected a pair of integers, got {entry!r}"
    with pytest.raises(ValueError) as exc:
        domain_from_dict(data)
    assert str(exc.value) == f"malformed domain document: {message}"
    with pytest.raises(ValueError) as exc:
        ConnectivityDomain(3, [(0, 1), entry], (0, 2), (), (1,))
    assert str(exc.value) == message
