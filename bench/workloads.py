"""Seeded inputs and query mixes for the three benchmark workloads.

Every workload is a list of *cycles*. A cycle is a fixed mix of CLI queries
over freshly generated domain files; all cycles of a workload have the same
shape (the same agent counts and subcommands in the same order), only the
random graphs differ. The timed loop runs whole cycles, so the mix completed
in a run never depends on where the clock stopped.

The program sees only the files written here. Generators use their own
graph search (:mod:`oracle`) to reject unwanted domains (degenerate ones, or trees
where a non-tree is wanted), so input selection does not depend on the code
under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracle

# Monte Carlo accuracy target stated by the beyond-cap workload.
MC_EPSILON = 0.1
MC_DELTA = 0.1

# Cycles generated per run: more than a 30-second run completes at the
# baseline speed, so the inputs a run sees do not depend on how fast it went.
# A run that finishes them all starts over; each CLI call reloads its
# domain, so a repeat does no less work.
CYCLES = {"exact": 20, "leastcore": 80, "beyond-cap": 24}


@dataclass
class Query:
    """One CLI call plus what its output check needs."""

    argv: list[str]
    check: str
    ctx: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class Workload:
    cycles: list[list[Query]]
    warmups: list[Query]


# ---------------------------------------------------------------- domains

def _assign_kinds(rng, n_vertices, n_primary, n_backbone):
    ids = list(range(n_vertices))
    rng.shuffle(ids)
    return (sorted(ids[:n_primary]), sorted(ids[n_primary:n_primary + n_backbone]),
            ids[n_primary + n_backbone:])


def graph_domain(rng: random.Random, n_agents: int, edge_prob: float) -> dict:
    """Connected non-tree domain with 4 primaries and 1 backbone vertex: a
    random spanning tree plus edge_prob x V(V-1)/2 further edges, kept only if
    non-degenerate and cyclic after contraction. Fixed vertex and edge counts
    keep the cost of domains of one size close together."""
    n_vertices = n_agents + 5
    extra = round(edge_prob * n_vertices * (n_vertices - 1) / 2)
    while True:
        edges = {(rng.randrange(v), v) for v in range(1, n_vertices)}
        target = len(edges) + extra
        while len(edges) < target:
            u, v = sorted(rng.sample(range(n_vertices), 2))
            edges.add((u, v))
        primary, backbone, standard = _assign_kinds(rng, n_vertices, 4, 1)
        domain = {"vertices": n_vertices, "edges": sorted([u, v] for u, v in edges),
                  "primary": primary, "backbone": backbone, "standard": standard}
        if oracle.nondegenerate(domain) and not oracle.quotient_is_forest(domain):
            return domain


def tree_domain(rng: random.Random, n_agents: int, forest_quotient: bool) -> dict:
    """Random recursive tree. With ``forest_quotient`` a backbone star gets
    chords between its leaves: cycles that vanish once always-usable regions
    are contracted, so the closed forms still apply."""
    while True:
        n_primary = rng.randint(2, 4)
        n_backbone = 4 if forest_quotient else rng.randint(0, 2)
        n_vertices = n_agents + n_primary + n_backbone
        edges = {(rng.randrange(v), v) for v in range(1, n_vertices)}
        if forest_quotient:
            adjacency = oracle.adjacency(n_vertices, edges)
            hubs = [v for v in range(n_vertices) if len(adjacency[v]) >= 3]
            hub = rng.choice(hubs)
            leaves = rng.sample(sorted(adjacency[hub]), 3)
            backbone = sorted([hub] + leaves)
            rest = [v for v in range(n_vertices) if v not in backbone]
            rng.shuffle(rest)
            primary, standard = sorted(rest[:n_primary]), rest[n_primary:]
            edges.update((min(a, b), max(a, b)) for i, a in enumerate(leaves)
                         for b in leaves[i + 1:])
        else:
            primary, backbone, standard = _assign_kinds(rng, n_vertices, n_primary,
                                                        n_backbone)
        domain = {"vertices": n_vertices, "edges": sorted([u, v] for u, v in edges),
                  "primary": primary, "backbone": backbone, "standard": standard}
        if oracle.nondegenerate(domain):
            return domain


def imputation(rng: random.Random, n_agents: int) -> list[str]:
    """Seeded exact-rational imputation with positive entries summing to 1."""
    weights = [rng.randint(1, 9) for _ in range(n_agents)]
    total = sum(weights)
    return [str(Fraction(w, total)) for w in weights]


def setcover_instance(rng: random.Random, n_agents: int) -> dict:
    """Set-cover instance whose game has ``n_agents`` agents and more than 62
    vertices (sets + v_a + items + v_b). Every item is in some set."""
    n_sets = n_agents - 1
    universe = 64 - n_sets + rng.randint(0, 4)
    sets = [[t for t in range(universe) if rng.random() < 0.3] for _ in range(n_sets)]
    for t in range(universe):
        if not any(t in s for s in sets):
            rng.choice(sets).append(t)
    return {"universe": universe, "sets": [sorted(s) for s in sets]}


def vertexcover_instance(rng: random.Random, n_agents: int) -> dict:
    """Vertex-cover instance whose game has more than 62 vertices
    (graph vertices + one primary per edge + one backbone)."""
    n_edges = 62 - n_agents + rng.randint(1, 4)
    pairs = [(u, v) for u in range(n_agents) for v in range(u + 1, n_agents)]
    return {"vertices": n_agents, "edges": [list(e) for e in rng.sample(pairs, n_edges)],
            "t": rng.randint(1, n_agents)}


# ---------------------------------------------------------------- queries

class _Writer:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.count = 0

    def write(self, stem: str, payload) -> str:
        self.count += 1
        path = self.workdir / f"{self.count:04d}-{stem}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)


def _exact_group(rng, out: _Writer, n_agents: int) -> list[Query]:
    domain = graph_domain(rng, n_agents, 0.25)
    dpath = out.write(f"graph{n_agents}", domain)
    payoffs = imputation(rng, n_agents)
    ppath = out.write(f"pay{n_agents}", {"imputation": payoffs})
    epsilon = round(rng.uniform(0.5, 0.95), 3)
    ctx = {"domain": domain}
    return [
        Query(["indices", dpath, "--index", "both", "--format", "json"], "indices", ctx),
        Query(["ecm", dpath, ppath, "--epsilon", repr(epsilon), "--format", "json"], "ecm",
              dict(ctx, payoffs=payoffs, epsilon=epsilon)),
        Query(["core", dpath, "--format", "json"], "core", ctx),
    ]


def _setcover_group(rng, out: _Writer, n_agents: int) -> list[Query]:
    instance = setcover_instance(rng, n_agents)
    ipath = out.write(f"setcover{n_agents}", instance)
    dpath = ipath.replace(".json", ".domain.json")
    return [
        Query(["generate", "setcover", ipath, "--out", dpath], "generate",
              {"out": dpath, "agents": n_agents}),
        Query(["indices", dpath, "--index", "both", "--format", "json"], "indices",
              {"domain_path": dpath, "setcover": instance}),
    ]


def _vertexcover_group(rng, out: _Writer, n_agents: int) -> list[Query]:
    instance = vertexcover_instance(rng, n_agents)
    ipath = out.write(f"vertexcover{n_agents}", instance)
    dpath = ipath.replace(".json", ".domain.json")
    sidecar = dpath.replace(".json", ".imputation.json")
    epsilon = float(Fraction(n_agents - instance["t"], n_agents))
    return [
        Query(["generate", "vertexcover", ipath, "--out", dpath], "generate",
              {"out": dpath, "agents": n_agents}),
        Query(["ecm", dpath, sidecar, "--epsilon", repr(epsilon), "--format", "json"],
              "ecm", {"domain_path": dpath, "sidecar": sidecar, "epsilon": epsilon,
                      "vertexcover": instance}),
    ]


def _exact_cycle(rng, out, index: int) -> list[Query]:
    # Non-tree graphs with 14..18 agents take the int64-lane kernel; the
    # covering games sized past 62 vertices (13 and 16 agents, the ends of
    # their range, the same in every cycle) take the per-coalition fallback.
    # Half the graphs have 14 agents, which puts the median query inside one
    # size class instead of on the edge between two. Heavy and light groups
    # alternate so no stretch of the cycle is atypical.
    return (_exact_group(rng, out, 18) + _setcover_group(rng, out, 13)
            + _exact_group(rng, out, 14) + _exact_group(rng, out, 17)
            + _exact_group(rng, out, 14) + _vertexcover_group(rng, out, 16)
            + _exact_group(rng, out, 16) + _exact_group(rng, out, 14)
            + _exact_group(rng, out, 15) + _exact_group(rng, out, 14))


def _leastcore_cycle(rng, out, index: int) -> list[Query]:
    # 10..16 agents straddle the exact-LP cap of 12: rational simplex with
    # constraint generation below it, HiGHS over minimal winning coalitions above.
    queries = []
    for n_agents in (13, 10, 16, 11, 14, 12, 15):
        domain = graph_domain(rng, n_agents, 0.25)
        dpath = out.write(f"graph{n_agents}", domain)
        queries.append(Query(["leastcore", dpath, "--format", "json"], "leastcore",
                             {"domain": domain}))
    return queries


def _mc_args(seed: int) -> list[str]:
    return ["--epsilon", repr(MC_EPSILON), "--delta", repr(MC_DELTA), "--seed", str(seed)]


def _mc_group(rng, out, n_agents: int) -> list[Query]:
    domain = graph_domain(rng, n_agents, 3.0 / (n_agents + 4))
    dpath = out.write(f"graph{n_agents}", domain)
    ctx = {"domain": domain}
    return [
        Query(["indices", dpath, "--index", "both", "--format", "json",
               *_mc_args(rng.randrange(1 << 30))], "indices", ctx),
        Query(["core", dpath, "--format", "json"], "core", ctx),
    ]


def _tree_group(rng, out, n_agents: int, forest_quotient: bool) -> list[Query]:
    domain = tree_domain(rng, n_agents, forest_quotient)
    dpath = out.write(f"tree{n_agents}", domain)
    payoffs = imputation(rng, n_agents)
    ppath = out.write(f"pay{n_agents}", {"imputation": payoffs})
    epsilon = round(rng.uniform(0.5, 0.95), 3)
    ctx = {"domain": domain}
    return [
        Query(["indices", dpath, "--index", "both", "--format", "json"], "indices", ctx),
        Query(["ecm", dpath, ppath, "--epsilon", repr(epsilon), "--format", "json"],
              "ecm", dict(ctx, payoffs=payoffs, epsilon=epsilon)),
        Query(["leastcore", dpath, "--format", "json"], "leastcore", ctx),
        Query(["core", dpath, "--format", "json"], "core", ctx),
    ]


def _forced_mc_group(rng, out, n_agents: int) -> list[Query]:
    domain = graph_domain(rng, n_agents, 0.3)
    dpath = out.write(f"small{n_agents}", domain)
    return [Query(["indices", dpath, "--index", "both", "--method", "mc", "--format", "json",
                   *_mc_args(rng.randrange(1 << 30))], "indices",
                  {"domain": domain, "mc_accuracy": True})]


def _beyond_cap_cycle(rng, out, index: int) -> list[Query]:
    # 25..48 agents, past the enumeration cap of 24: Monte Carlo on non-trees,
    # closed forms on trees and forest quotients. One small domain per cycle
    # is forced through Monte Carlo so its estimates can be checked exactly.
    return (_mc_group(rng, out, 25) + _tree_group(rng, out, 30, False)
            + _mc_group(rng, out, 33) + _tree_group(rng, out, 36, True)
            + _mc_group(rng, out, 41) + _tree_group(rng, out, 42, False)
            + _mc_group(rng, out, 48) + _tree_group(rng, out, 47, True)
            + _forced_mc_group(rng, out, 10 + index % 3))


_CYCLE_BUILDERS = {"exact": _exact_cycle, "leastcore": _leastcore_cycle,
                   "beyond-cap": _beyond_cap_cycle}
NAMES = tuple(_CYCLE_BUILDERS)


def _warmups(name: str, rng, out: _Writer) -> list[Query]:
    """One untimed query per subcommand the workload uses. The leastcore
    warm-up includes a float LP, which triggers the lazy scipy.optimize import."""
    if name == "exact":
        return _exact_group(rng, out, 12) + _setcover_group(rng, out, 8)[:1]
    if name == "leastcore":
        return [Query(["leastcore", out.write(f"warm{n}", domain), "--format", "json"],
                      "leastcore", {"domain": domain})
                for n in (10, 13) for domain in [graph_domain(rng, n, 0.25)]]
    return _forced_mc_group(rng, out, 10) + _tree_group(rng, out, 25, False)


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate and write every input of a workload; same seed, same files."""
    if name not in _CYCLE_BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    rng = random.Random(f"{name}:{seed}")
    out = _Writer(workdir)
    warmups = _warmups(name, random.Random(f"{name}:{seed}:warmup"), out)
    cycles = [_CYCLE_BUILDERS[name](rng, out, i) for i in range(CYCLES[name])]
    return Workload(cycles, warmups)
