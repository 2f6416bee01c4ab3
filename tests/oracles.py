"""Independent brute-force oracles and instance generators shared by the tests.

The oracles deliberately use a different route than the code they check:
set-based BFS instead of bitmask kernels, literal permutation / subset sums
instead of the vectorized counting, full-enumeration definitions for veto
players and core membership, and a two-phase ``Fraction`` tableau on the
least core's program in standard form for the integer dual simplex.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import permutations
from math import factorial, lcm

from conngames import (
    Coalition,
    ConnectivityDomain,
    SetCoverInstance,
    VertexCoverInstance,
    classify,
    derive_seed,
    enumeration,
)


class LPInfeasible(Exception):
    pass


class LPUnbounded(Exception):
    pass


# ----------------------------------------------------------- value oracle

def reference_value(domain: ConnectivityDomain, members) -> int:
    """Characteristic function via set-based BFS (no bitmask tricks)."""
    primaries = set(domain.primary)
    if len(primaries) <= 1:
        return 1
    usable = primaries | set(domain.backbone)
    usable.update(domain.standard[i] for i in members)
    adjacency: dict[int, list[int]] = {}
    for u, v in domain.edges:
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    start = min(primaries)
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adjacency.get(u, ()):
            if v in usable and v not in seen:
                seen.add(v)
                stack.append(v)
    return 1 if primaries <= seen else 0


def reference_mask_value(domain: ConnectivityDomain, mask: int) -> int:
    """``reference_value`` of the coalition whose bit i says agent i is in."""
    return reference_value(domain, [i for i in range(domain.n_agents) if mask >> i & 1])


def reference_table(domain: ConnectivityDomain) -> list[int]:
    return [reference_mask_value(domain, mask) for mask in range(1 << domain.n_agents)]


# ----------------------------------------------------------- index oracles

def banzhaf_definition(domain: ConnectivityDomain) -> list[Fraction]:
    """Direct subset loop over the index definition."""
    n = domain.n_agents
    table = reference_table(domain)
    values = []
    for agent in range(n):
        bit = 1 << agent
        count = 0
        for mask in range(1 << n):
            if mask & bit and table[mask] == 1 and table[mask ^ bit] == 0:
                count += 1
        values.append(Fraction(count, 1 << (n - 1)))
    return values


def shapley_permutation(domain: ConnectivityDomain) -> list[Fraction]:
    """Literal average of marginal contributions over all n! orderings."""
    n = domain.n_agents
    totals = [0] * n
    for order in permutations(range(n)):
        mask = 0
        previous = reference_mask_value(domain, 0)
        for agent in order:
            mask |= 1 << agent
            current = reference_mask_value(domain, mask)
            totals[agent] += current - previous
            previous = current
    n_fact = 1
    for k in range(2, n + 1):
        n_fact *= k
    return [Fraction(t, n_fact) for t in totals]


def table_indices(domain: ConnectivityDomain) -> tuple[tuple[Fraction, ...], ...]:
    """(Banzhaf, Shapley) values read from the library's win table through
    ``enumeration.criticality_size_counts``, whatever form the exact solvers
    pick: the cross-check of the closed forms, not an independent oracle."""
    n = domain.n_agents
    hists = enumeration.criticality_size_counts(enumeration.win_table(domain), n).tolist()
    banzhaf = tuple(Fraction(sum(h), 1 << (n - 1)) for h in hists)
    shapley = tuple(sum((Fraction(c * factorial(s - 1) * factorial(n - s), factorial(n))
                         for s, c in enumerate(h) if s), Fraction(0)) for h in hists)
    return banzhaf, shapley


# ----------------------------------------------------------- core oracles

def veto_enumeration(domain: ConnectivityDomain) -> tuple[int, ...]:
    """Agents present in every winning coalition, by full enumeration."""
    n = domain.n_agents
    everyone = (1 << n) - 1
    common = everyone
    saw_winning = False
    for mask in range(1 << n):
        if reference_mask_value(domain, mask) == 1:
            saw_winning = True
            common &= mask
            if common == 0:
                break
    if not saw_winning:
        return tuple(range(n))
    return tuple(i for i in range(n) if common >> i & 1)


def definitional_in_core(domain: ConnectivityDomain, payoffs, tol=1e-9) -> bool:
    """All-coalitions check p(C) >= v(C) - tol, straight from the definition."""
    n = domain.n_agents
    p = [float(v) for v in payoffs]
    for mask in range(1 << n):
        payment = sum(p[i] for i in range(n) if mask >> i & 1)
        if payment < reference_mask_value(domain, mask) - tol:
            return False
    return True


def max_excess_bruteforce(domain: ConnectivityDomain, payoffs) -> Fraction:
    return max_excess_witness_bruteforce(domain, payoffs)[0]


def max_excess_witness_bruteforce(domain: ConnectivityDomain, payoffs) -> tuple[Fraction, int]:
    """The maximal excess over all 2^n coalitions and its witness mask: the
    largest excess, then the smallest coalition, then the smallest mask."""
    n = domain.n_agents
    p = [Fraction(v) for v in payoffs]
    deficit, _, witness = min(
        (sum((p[i] for i in range(n) if mask >> i & 1), Fraction(0))
         - reference_mask_value(domain, mask), mask.bit_count(), mask)
        for mask in range(1 << n))
    return -deficit, witness


def least_core_by_table_scan(domain: ConnectivityDomain) -> Fraction:
    """The least core of a non-degenerate domain by constraint generation over
    the whole win table: each round solves  min eps  s.t.  p(C) + eps >= 1
    over the active coalitions C, p(N) = v(N), by ``fraction_simplex``, and
    adds the winning coalition of least (payment, size, mask) among all 2^n
    masks, its payments summed as ``Fraction``s mask by mask. Returns eps."""
    n = domain.n_agents
    grand = (1 << n) - 1
    win = reference_table(domain)
    grand_value = win[grand]
    active = [grand]
    for _ in range(sum(win) + 2):
        a_ub = [[-(mask >> i & 1) for i in range(n)] + [-1] for mask in active]
        solution = fraction_simplex([0] * n + [1], a_ub, [-1] * len(active),
                                    [[1] * n + [0]], [grand_value])
        payoffs, eps = solution.x[:n], solution.x[n]
        paid = [Fraction(0)]
        for mask in range(1, 1 << n):
            low = mask & -mask
            paid.append(paid[mask ^ low] + payoffs[low.bit_length() - 1])
        payment, _, worst = min((paid[m], m.bit_count(), m) for m in range(1 << n) if win[m])
        if 1 - payment <= eps:
            return eps
        active.append(worst)
    raise RuntimeError("table-scan constraint generation failed to converge")


def essential_by_removal(domain: ConnectivityDomain) -> tuple[int, ...]:
    """Removal test: agent is essential iff the coalition of everyone else loses."""
    n = domain.n_agents
    grand = (1 << n) - 1
    return tuple(i for i in range(n)
                 if reference_mask_value(domain, grand ^ (1 << i)) == 0)


def _usable_regions(domain: ConnectivityDomain):
    """Adjacency sets, and the region (its smallest vertex) of every primary
    or backbone vertex: connected always-usable regions by set-based search."""
    usable = set(domain.primary) | set(domain.backbone)
    adjacency: dict[int, set[int]] = {}
    for u, v in domain.edges:
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
    region: dict[int, int] = {}
    for start in sorted(usable):
        if start in region:
            continue
        region[start] = start
        stack = [start]
        while stack:
            for v in adjacency.get(stack.pop(), ()):
                if v in usable and v not in region:
                    region[v] = start
                    stack.append(v)
    return adjacency, region


def quotient_has_cycle(domain: ConnectivityDomain) -> bool:
    """Whether a cycle is left once every connected region of primary and
    backbone vertices is one vertex: regions by set-based search, then
    vertices of degree <= 1 are stripped until none is left."""
    _, region = _usable_regions(domain)
    neighbours: dict[int, set[int]] = {}
    for u, v in domain.edges:
        a, b = region.get(u, u), region.get(v, v)
        if a != b:
            neighbours.setdefault(a, set()).add(b)
            neighbours.setdefault(b, set()).add(a)
    leaves = [v for v, ns in neighbours.items() if len(ns) <= 1]
    while leaves:
        v = leaves.pop()
        for u in neighbours.pop(v, ()):
            neighbours[u].discard(v)
            if len(neighbours[u]) <= 1:
                leaves.append(u)
    return bool(neighbours)


def min_agent_cut(domain: ConnectivityDomain) -> int:
    """Fewest agents whose removal separates the two primary regions
    (Menger): a max-flow with unit agent capacities, one breadth-first
    augmenting path at a time. Each agent's vertex v splits into an arc
    (v, "in") -> (v, "out") of capacity 1; each always-usable region is one
    uncapacitated node, and every edge is a pair of uncapacitated arcs."""
    adjacency, region = _usable_regions(domain)
    terminals = sorted({region[p] for p in domain.primary})
    if len(terminals) != 2:
        raise ValueError(f"{len(terminals)} primary regions, not 2")
    source, sink = terminals
    unbounded = len(domain.standard) + 1
    capacity: dict[tuple, dict[tuple, int]] = {}

    def arc(a, b, cap):  # and its residual reverse arc, at 0 unless an arc itself
        capacity.setdefault(a, {})[b] = cap
        capacity.setdefault(b, {}).setdefault(a, 0)

    def node(v, side):
        return (region[v], "region") if v in region else (v, side)

    for v in domain.standard:
        arc((v, "in"), (v, "out"), 1)
    for u, vs in adjacency.items():
        for v in vs:
            if node(u, "out") != node(v, "in"):
                arc(node(u, "out"), node(v, "in"), unbounded)
    start, goal = (source, "region"), (sink, "region")
    flow = 0
    while True:
        previous = {start: None}
        queue = [start]
        for a in queue:
            for b, cap in capacity.get(a, {}).items():
                if cap > 0 and b not in previous:
                    previous[b] = a
                    queue.append(b)
        if goal not in previous:
            return flow
        b = goal
        while previous[b] is not None:
            a = previous[b]
            capacity[a][b] -= 1
            capacity[b][a] += 1
            b = a
        flow += 1


# ----------------------------------------------------------- LP oracle

@dataclass(frozen=True)
class FractionSolution:
    """An optimum of ``fraction_simplex``: x and the objective as Fractions,
    and x over one common denominator, as ``lp.LPSolution`` holds it, for a
    caller of ``lp.solve_exact`` that is handed this solution instead."""

    x: tuple[Fraction, ...]
    objective: Fraction

    @property
    def scale(self) -> int:
        return lcm(*(v.denominator for v in self.x))

    @property
    def scaled(self) -> tuple[int, ...]:
        scale = self.scale
        return tuple(v.numerator * scale // v.denominator for v in self.x)


def _fraction_pivot(tableau, basis, row, col):
    piv = tableau[row][col]
    tableau[row] = [v / piv for v in tableau[row]]
    for r, other in enumerate(tableau):
        if r != row and other[col] != 0:
            factor = other[col]
            prow = tableau[row]
            tableau[r] = [v - factor * p for v, p in zip(other, prow)]
    basis[row] = col


def _fraction_optimize(tableau, basis, costs, banned):
    width = len(costs)
    while True:
        cb = [costs[b] for b in basis]
        entering = -1
        for j in range(width):
            if j in banned or j in basis:
                continue
            reduced = costs[j]
            for r, row in enumerate(tableau):
                if row[j] != 0 and cb[r] != 0:
                    reduced -= cb[r] * row[j]
            if reduced < 0:
                entering = j
                break
        if entering == -1:
            return
        leaving = -1
        best_ratio = None
        for r, row in enumerate(tableau):
            a = row[entering]
            if a > 0:
                ratio = row[-1] / a
                if (best_ratio is None or ratio < best_ratio
                        or (ratio == best_ratio and basis[r] < basis[leaving])):
                    best_ratio = ratio
                    leaving = r
        if leaving == -1:
            raise LPUnbounded("objective unbounded below")
        _fraction_pivot(tableau, basis, leaving, entering)


def fraction_simplex(c, a_ub=(), b_ub=(), a_eq=(), b_eq=()) -> FractionSolution:
    """Reference for ``lp.solve_exact``: min c.x  s.t.  A_ub x <= b_ub,
    A_eq x = b_eq, x >= 0, by a two-phase Bland's-rule primal simplex on a
    tableau of ``Fraction`` rows, with every reduced cost recomputed from the
    basis on each iteration. The covering program of ``lp.solve_exact(n,
    cuts)`` is c = 1, A_ub = -A and b_ub = -1, for A the cuts' rows."""
    c = [Fraction(v) for v in c]
    nv = len(c)
    rows = []
    for coeffs, b in zip(a_ub, b_ub):
        rows.append(([Fraction(v) for v in coeffs], Fraction(b), True))
    for coeffs, b in zip(a_eq, b_eq):
        rows.append(([Fraction(v) for v in coeffs], Fraction(b), False))
    m = len(rows)
    n_slack = sum(1 for _, _, has_slack in rows if has_slack)
    width = nv + n_slack + m  # artificial variable per row
    zero = Fraction(0)

    tableau = []
    basis = []
    slack_at = nv
    for r, (coeffs, b, has_slack) in enumerate(rows):
        row = [zero] * (width + 1)
        for j, v in enumerate(coeffs):
            row[j] = v
        if has_slack:
            row[slack_at] = Fraction(1)
            slack_at += 1
        row[-1] = b
        if b < 0:
            row = [-v for v in row]
        art = nv + n_slack + r
        row[art] = Fraction(1)
        tableau.append(row)
        basis.append(art)

    phase1 = [zero] * width
    for j in range(nv + n_slack, width):
        phase1[j] = Fraction(1)
    _fraction_optimize(tableau, basis, phase1, banned=frozenset())
    residual = sum((tableau[r][-1] for r in range(m) if basis[r] >= nv + n_slack),
                   start=zero)
    if residual != 0:
        raise LPInfeasible("no feasible point")
    for r in range(m):
        if basis[r] >= nv + n_slack:
            for j in range(nv + n_slack):
                if tableau[r][j] != 0:
                    _fraction_pivot(tableau, basis, r, j)
                    break

    phase2 = c + [zero] * (n_slack + m)
    banned = frozenset(range(nv + n_slack, width))
    _fraction_optimize(tableau, basis, phase2, banned=banned)

    x = [zero] * nv
    for r, b in enumerate(basis):
        if b < nv:
            x[b] = tableau[r][-1]
    objective = sum((ci * xi for ci, xi in zip(c, x)), start=zero)
    return FractionSolution(tuple(x), objective)


def covering_by_fraction_simplex(n: int, cuts) -> FractionSolution:
    """The program of ``lp.solve_exact(n, cuts)`` in standard form, min sum(x)
    s.t. -x(C) <= -1 for every cut C, x >= 0, by ``fraction_simplex``."""
    a_ub = [[-(cut >> i & 1) for i in range(n)] for cut in cuts]
    return fraction_simplex([1] * n, a_ub, [-1] * len(cuts))


# ----------------------------------------------------------- Monte Carlo

def banzhaf_mc_scalar(domain: ConnectivityDomain, agent: int, params) -> float:
    """The sampling loop of ``banzhaf_mc``, one scalar evaluation per coalition."""
    rng = random.Random(params.seed)
    bit = 1 << agent
    others = ((1 << domain.n_agents) - 1) ^ bit
    hits = 0
    for _ in range(params.samples):
        sample = rng.getrandbits(domain.n_agents) & others
        hits += reference_mask_value(domain, sample | bit) and not reference_mask_value(
            domain, sample)
    return hits / params.samples


def shapley_mc_scalar(domain: ConnectivityDomain, agent: int, params) -> float:
    """The sampling loop of ``shapley_mc``: the agent's predecessors in each
    shuffled order, built as an int mask."""
    rng = random.Random(params.seed)
    order = list(range(domain.n_agents))
    bit = 1 << agent
    hits = 0
    for _ in range(params.samples):
        rng.shuffle(order)
        predecessors = 0
        for j in order:
            if j == agent:
                break
            predecessors |= 1 << j
        hits += reference_mask_value(domain, predecessors | bit) and not reference_mask_value(
            domain, predecessors)
    return hits / params.samples


def mc_all_scalar(domain: ConnectivityDomain, params, kind: str) -> list[float]:
    """Per-agent scalar estimates with the sub-seeds ``*_mc_all`` derives."""
    estimator = banzhaf_mc_scalar if kind == "banzhaf" else shapley_mc_scalar
    return [estimator(domain, agent, replace(params, seed=derive_seed(params.seed,
                                                                      f"{kind}:{agent}")))
            for agent in range(domain.n_agents)]


# ----------------------------------------------------------- generators

def random_tree_domain(rng: random.Random, max_agents=14,
                       require_nondegenerate=True) -> ConnectivityDomain:
    for _ in range(1000):
        n = rng.randint(1, max_agents)
        n_primary = rng.randint(2, 4)
        n_backbone = rng.randint(0, 3)
        total = n + n_primary + n_backbone
        edges = tuple((rng.randrange(v), v) for v in range(1, total))
        ids = list(range(total))
        rng.shuffle(ids)
        domain = ConnectivityDomain(
            vertex_count=total,
            edges=edges,
            primary=tuple(ids[:n_primary]),
            backbone=tuple(ids[n_primary:n_primary + n_backbone]),
            standard=tuple(ids[n_primary + n_backbone:]),
        )
        if not require_nondegenerate:
            return domain
        c = classify(domain)
        if not (c.degenerate_all_win or c.degenerate_all_lose):
            return domain
    raise RuntimeError("failed to sample a non-degenerate tree domain")


def random_graph_domain(rng: random.Random, max_agents=8, edge_prob=0.4,
                        require_nondegenerate=False) -> ConnectivityDomain:
    for _ in range(1000):
        n = rng.randint(1, max_agents)
        n_primary = rng.randint(2, 3)
        n_backbone = rng.randint(0, 2)
        total = n + n_primary + n_backbone
        edges = tuple((u, v) for u in range(total) for v in range(u + 1, total)
                      if rng.random() < edge_prob)
        ids = list(range(total))
        rng.shuffle(ids)
        domain = ConnectivityDomain(
            vertex_count=total,
            edges=edges,
            primary=tuple(ids[:n_primary]),
            backbone=tuple(ids[n_primary:n_primary + n_backbone]),
            standard=tuple(ids[n_primary + n_backbone:]),
        )
        if not require_nondegenerate:
            return domain
        c = classify(domain)
        if not (c.degenerate_all_win or c.degenerate_all_lose):
            return domain
    raise RuntimeError("failed to sample a non-degenerate graph domain")


def connected_graph_domain(rng: random.Random, n_agents: int, n_edges: int,
                           n_primary: int = 4) -> ConnectivityDomain:
    """Connected graph on n_agents + n_primary + 1 vertices (one backbone):
    a random spanning tree plus random chords up to ``n_edges`` edges."""
    total = n_agents + n_primary + 1
    edges = {(rng.randrange(v), v) for v in range(1, total)}
    while len(edges) < n_edges:
        u, v = sorted(rng.sample(range(total), 2))
        edges.add((u, v))
    ids = list(range(total))
    rng.shuffle(ids)
    return ConnectivityDomain(total, tuple(sorted(edges)), primary=tuple(ids[:n_primary]),
                              backbone=(ids[n_primary],), standard=tuple(ids[n_primary + 1:]))


def region_domain(rng: random.Random, n_agents: int, regions: int = 2) -> ConnectivityDomain:
    """Non-degenerate domain whose quotient has exactly ``regions`` primary
    regions: ``regions`` or one more primaries and 0-2 backbones on a random
    spanning tree plus chords."""
    for _ in range(1000):
        n_primary = rng.randint(regions, regions + 1)
        n_backbone = rng.randint(0, 2)
        total = n_agents + n_primary + n_backbone
        edges = {(rng.randrange(v), v) for v in range(1, total)}
        for _ in range(rng.randint(0, 2 * total)):
            u, v = sorted(rng.sample(range(total), 2))
            edges.add((u, v))
        ids = list(range(total))
        rng.shuffle(ids)
        domain = ConnectivityDomain(
            total, tuple(sorted(edges)), primary=tuple(ids[:n_primary]),
            backbone=tuple(ids[n_primary:n_primary + n_backbone]),
            standard=tuple(ids[n_primary + n_backbone:]))
        _, region = _usable_regions(domain)
        if len({region[p] for p in domain.primary}) == regions \
                and not classify(domain).degenerate:
            return domain
    raise RuntimeError(f"failed to sample a {regions}-region domain")


def with_triangle(domain: ConnectivityDomain) -> ConnectivityDomain:
    """``domain`` with two more primaries B and C and three more agents, the
    last three: x between the first primary A and B, y between B and C, and
    z between C and A. A winning coalition holds two of x, y and z, so no
    two disjoint coalitions win, while at most two agents part A from B. On
    a primary A alone this is the triangle game: any two agents win, the
    least core's tau is 3/2 and eps = 1/3."""
    a, (b, c, x, y, z) = domain.primary[0], range(domain.vertex_count, domain.vertex_count + 5)
    return ConnectivityDomain(domain.vertex_count + 5,
                              (*domain.edges, (a, x), (x, b), (b, y), (y, c), (c, z), (z, a)),
                              domain.primary + (b, c), domain.backbone,
                              domain.standard + (x, y, z))


def random_imputation(rng: random.Random, n: int, allow_negative=False) -> list[float]:
    if allow_negative and n >= 2:
        weights = [rng.uniform(-0.5, 1.0) for _ in range(n)]
    else:
        weights = [rng.random() for _ in range(n)]
    total = sum(weights)
    if abs(total) < 1e-6:
        weights = [1.0] * n
        total = float(n)
    return [w / total for w in weights]


def random_setcover(rng: random.Random, max_sets=9, max_items=8) -> SetCoverInstance:
    k = rng.randint(1, max_items)
    n = rng.randint(1, max_sets)
    sets = [tuple(t for t in range(k) if rng.random() < 0.45) for _ in range(n)]
    if rng.random() < 0.85:
        covered = set().union(*map(set, sets)) if sets else set()
        for item in range(k):
            if item not in covered:
                idx = rng.randrange(n)
                sets[idx] = tuple(sorted(set(sets[idx]) | {item}))
    return SetCoverInstance(k, tuple(sets))


def random_vc_instance(rng: random.Random, max_vertices=8,
                       threshold=0) -> VertexCoverInstance:
    while True:
        n = rng.randint(3, max_vertices)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.45]
        if len(edges) >= 2:
            return VertexCoverInstance(n, tuple(edges), threshold)


# ----------------------------------------------------------- named domains

def path3() -> ConnectivityDomain:
    """a - x - b with a, b primary; one agent owning x."""
    return ConnectivityDomain(3, ((0, 1), (1, 2)), primary=(0, 2), backbone=(),
                              standard=(1,))


def path4() -> ConnectivityDomain:
    """a - x - y - b; agents 0, 1 own x, y."""
    return ConnectivityDomain(4, ((0, 1), (1, 2), (2, 3)), primary=(0, 3),
                              backbone=(), standard=(1, 2))


def cycle4() -> ConnectivityDomain:
    """a - x - b - y - a; agents 0, 1 own x, y (opposite primaries a, b)."""
    return ConnectivityDomain(4, ((0, 1), (1, 2), (2, 3), (3, 0)), primary=(0, 2),
                              backbone=(), standard=(1, 3))


def star_domain() -> ConnectivityDomain:
    """Standard center (agent 0) with primary leaves and one standard leaf."""
    return ConnectivityDomain(4, ((0, 1), (0, 2), (0, 3)), primary=(1, 2),
                              backbone=(), standard=(0, 3))


def path3_with_leaf() -> ConnectivityDomain:
    """a - x - b plus a standard leaf z hanging off x."""
    return ConnectivityDomain(4, ((0, 1), (1, 2), (1, 3)), primary=(0, 2),
                              backbone=(), standard=(1, 3))


def lollipop(ring: int) -> ConnectivityDomain:
    """a - x - b plus a ring x - r1 - ... - r_ring - x of agents hanging off x
    (ring >= 2); agent 0 owns x. Its graph has a cycle, yet x alone wins: the
    unanimity game of agent 0."""
    ring_vertices = tuple(range(3, 3 + ring))
    cycle = (1, *ring_vertices, 1)
    return ConnectivityDomain(3 + ring, ((0, 1), (1, 2), *zip(cycle, cycle[1:])),
                              primary=(0, 2), backbone=(), standard=(1, *ring_vertices))


def single_primary_domain() -> ConnectivityDomain:
    return ConnectivityDomain(2, (), primary=(0,), backbone=(), standard=(1,))


def adjacent_primaries_domain() -> ConnectivityDomain:
    """Two primaries joined by a direct edge plus an isolated standard vertex."""
    return ConnectivityDomain(3, ((0, 1),), primary=(0, 1), backbone=(),
                              standard=(2,))


def all_lose_domain() -> ConnectivityDomain:
    """Primaries in different components; even the grand coalition loses."""
    return ConnectivityDomain(4, ((1, 2),), primary=(0, 3), backbone=(),
                              standard=(1, 2))


def fig_style_setcover() -> SetCoverInstance:
    """Five items; sets {0,2}, {0,1,2}, {2,4}, {2,3,4}. Exactly 4 covers."""
    return SetCoverInstance(5, ((0, 2), (0, 1, 2), (2, 4), (2, 3, 4)))


def k3_instance(threshold: int) -> VertexCoverInstance:
    return VertexCoverInstance(3, ((0, 1), (0, 2), (1, 2)), threshold)


def many_primaries_domain() -> ConnectivityDomain:
    """30 agents and 24 primaries in 15 regions, whose veto set loses: past
    the enumeration cap, and 3^15 terminal subsets put the Steiner oracle
    far past its budget."""
    return connected_graph_domain(random.Random(30), 30, n_edges=75, n_primary=24)


def triangle_domain() -> ConnectivityDomain:
    """Primaries 0, 1 and 2, each pair joined through one agent: the
    triangle game of ``with_triangle`` on a lone primary."""
    return with_triangle(ConnectivityDomain(1, (), (0,), (), ()))


def many_regions_triangle_domain() -> ConnectivityDomain:
    """33 agents and 26 primaries in 14 regions, with no veto agent: a
    30-agent graph ``with_triangle``, so the flows cannot certify its least
    cut (2), and 3^14 terminal subsets put the Steiner oracle far past its
    budget. The least core's rounds are refused past the enumeration cap."""
    return with_triangle(connected_graph_domain(random.Random(182), 30, n_edges=90,
                                                n_primary=24))


def ladder_domain(length: int) -> ConnectivityDomain:
    """Primaries 0 and 1 joined by two agent paths of ``length`` each, agents
    2 .. length + 1 on the first and the rest on the second: 2 * ``length``
    agents, the veto set losing, and one cut of 2 agents."""
    edges, vertex = [], 2
    for _ in range(2):
        edges.append((0, vertex))
        edges.extend((v, v + 1) for v in range(vertex, vertex + length - 1))
        vertex += length
        edges.append((1, vertex - 1))
    return ConnectivityDomain(vertex, tuple(edges), primary=(0, 1), backbone=(),
                              standard=tuple(range(2, vertex)))


def grand_mask(domain: ConnectivityDomain) -> int:
    return (1 << domain.n_agents) - 1


def members_of(mask: int, n: int) -> Coalition:
    return Coalition(mask, n)
