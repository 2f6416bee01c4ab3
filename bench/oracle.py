"""Set-based graph searches on domain dicts, independent of the package.

The generators use them to pick inputs and the checker uses them to verify
veto sets, so neither depends on the code being measured.
"""

from __future__ import annotations


def adjacency(n_vertices: int, edges) -> list[set[int]]:
    nbrs: list[set[int]] = [set() for _ in range(n_vertices)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def wins(domain: dict, members) -> bool:
    """True iff the agents in ``members`` plus every primary and backbone
    vertex connect all primary vertices."""
    primary = set(domain["primary"])
    if len(primary) <= 1:
        return True
    usable = primary | set(domain["backbone"])
    usable.update(domain["standard"][i] for i in members)
    nbrs = adjacency(domain["vertices"], domain["edges"])
    start = min(primary)
    seen = {start}
    stack = [start]
    while stack:
        for v in nbrs[stack.pop()]:
            if v in usable and v not in seen:
                seen.add(v)
                stack.append(v)
    return primary <= seen


def nondegenerate(domain: dict) -> bool:
    """The grand coalition wins and the empty coalition loses."""
    everyone = range(len(domain["standard"]))
    return wins(domain, everyone) and not wins(domain, ())


def veto_agents(domain: dict) -> list[int]:
    """Agents whose absence makes the rest of the agents lose."""
    n = len(domain["standard"])
    return [i for i in range(n) if not wins(domain, (j for j in range(n) if j != i))]


def quotient_is_forest(domain: dict) -> bool:
    """Whether the graph is acyclic once every connected region of primary
    and backbone vertices is contracted to one vertex."""
    parent = list(range(domain["vertices"]))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    always = set(domain["primary"]) | set(domain["backbone"])
    for u, v in domain["edges"]:
        if u in always and v in always:
            parent[find(u)] = find(v)
    # Contraction can turn two edges into one; the quotient keeps a single copy.
    quotient = {(min(a, b), max(a, b)) for u, v in domain["edges"]
                for a, b in [(find(u), find(v))] if a != b}
    for u, v in quotient:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True
