import pathlib
import random
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import pytest  # noqa: E402

import oracles  # noqa: E402
from conngames import classify, setcover_to_cg, vertexcover_to_ecm  # noqa: E402


@pytest.fixture(scope="session")
def corpus():
    """Non-degenerate domains with up to 12 agents, mixed trees and graphs."""
    rng = random.Random(20250808)
    domains = [
        ("path3", oracles.path3()),
        ("path4", oracles.path4()),
        ("cycle4", oracles.cycle4()),
        ("star", oracles.star_domain()),
        ("path3+leaf", oracles.path3_with_leaf()),
        ("fig-setcover", setcover_to_cg(oracles.fig_style_setcover())[0]),
        ("k3-cover", vertexcover_to_ecm(oracles.k3_instance(2))[0]),
    ]
    for i in range(5):
        domains.append((f"tree-{i}", oracles.random_tree_domain(rng, max_agents=10)))
    for i in range(5):
        domains.append((f"graph-{i}", oracles.random_graph_domain(
            rng, max_agents=8, require_nondegenerate=True)))
    for name, domain in domains:
        assert domain.n_agents <= 12, name
        c = classify(domain)
        assert not (c.degenerate_all_win or c.degenerate_all_lose), name
    return domains


@pytest.fixture(scope="session")
def tree_corpus():
    """Non-degenerate acyclic domains, with trees of 13 and 14 agents past
    the old 12-agent exact LP cap."""
    rng = random.Random(31337)
    domains = [
        ("path3", oracles.path3()),
        ("path4", oracles.path4()),
        ("star", oracles.star_domain()),
        ("path3+leaf", oracles.path3_with_leaf()),
    ]
    for i in range(8):
        domains.append((f"tree-{i}", oracles.random_tree_domain(rng, max_agents=12)))
    for target in (13, 14):
        while True:
            domain = oracles.random_tree_domain(rng, max_agents=target)
            if domain.n_agents > 12:
                domains.append((f"tree-large-{target}", domain))
                break
    return domains
