"""Spans around the public functions of each ``conngames`` module.

Nothing in the package is changed on disk: :meth:`Tracer.installed` replaces
each public function with a timing wrapper in every namespace that holds it
(``classify``, for instance, is imported by name into ``cli``, ``stability``
and ``trees``), plus ``scipy.optimize.linprog``, which the least-core solver
imports at call time. Spans (name, start, end, parent, attributes) are kept
in memory; :func:`layer_metrics` reduces them to per-layer numbers. A layer's
self time is its spans' durations minus the time covered by their children.

The scalar evaluator ``domain._value_of_mask`` is deliberately not wrapped: it
runs once per coalition on some paths, so a span around it would cost more
than the work it measures. Its time counts as self time of the caller
(``win_table`` on the wide path, the Monte Carlo estimators, ``veto_players``).
"""

from __future__ import annotations

import inspect
import sys
import time
from contextlib import contextmanager
from statistics import median

LAYERS = ("domain", "trees", "enumeration", "powerindex", "stability", "lp", "reductions")
COMMANDS = ("indices", "ecm", "core", "leastcore", "generate")
NARROW_VERTICES = 62  # widest domain whose vertex sets fit an int64 lane


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, parent: int, attrs: dict):
        self.name = name
        self.parent = parent
        self.attrs = attrs
        self.start = self.end = 0.0

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, **self.attrs}


def _win_table_attrs(tracer, args, kwargs) -> dict:
    domain = args[0]
    build = id(domain) not in tracer.seen_domains
    tracer.seen_domains[id(domain)] = domain  # keeps the id from being reused
    return {"build": build, "agents": domain.n_agents,
            "wide": domain.vertex_count > NARROW_VERTICES}


def _mc_attrs(tracer, args, kwargs) -> dict:
    domain, params = args[0], args[1]
    return {"samples": domain.n_agents * params.samples}


def _lp_rows(tracer, args, kwargs) -> dict:
    a_ub = kwargs.get("a_ub", args[1] if len(args) > 1 else ())
    a_eq = kwargs.get("a_eq", args[3] if len(args) > 3 else ())
    return {"rows": len(a_ub) + len(a_eq)}


def _highs_rows(tracer, args, kwargs) -> dict:
    a_ub, a_eq = kwargs.get("A_ub"), kwargs.get("A_eq")
    return {"rows": sum(len(a) for a in (a_ub, a_eq) if a is not None)}


_ATTRS = {
    "enumeration.win_table": _win_table_attrs,
    "powerindex.banzhaf_mc_all": _mc_attrs,
    "powerindex.shapley_mc_all": _mc_attrs,
    "lp.solve_exact": _lp_rows,
    "lp.highs": _highs_rows,
}


class Tracer:
    """Records spans while installed; one instance per run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.seen_domains: dict[int, object] = {}
        self.patches = self._plan()

    def _wrap(self, name: str, fn):
        attrs_of = _ATTRS.get(name)

        def traced(*args, **kwargs):
            attrs = attrs_of(self, args, kwargs) if attrs_of else {}
            with self.span(name, attrs) as span:
                try:
                    return fn(*args, **kwargs)
                except Exception as exc:
                    span.attrs["raised"] = type(exc).__name__
                    raise

        traced.__wrapped__ = fn
        return traced

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(namespace, attribute, original, wrapper) for every patch site."""
        import scipy.optimize

        import conngames

        modules = [sys.modules[f"conngames.{layer}"] for layer in LAYERS]
        namespaces = [conngames, sys.modules["conngames.cli"], *modules]
        patches = []
        for layer, module in zip(LAYERS, modules):
            for attr, fn in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                patches += [(ns, name, fn, wrapper) for ns in namespaces
                            for name, value in vars(ns).items() if value is fn]
        linprog = scipy.optimize.linprog
        patches.append((scipy.optimize, "linprog", linprog, self._wrap("lp.highs", linprog)))
        return patches

    @contextmanager
    def installed(self):
        for namespace, attr, _, wrapper in self.patches:
            setattr(namespace, attr, wrapper)
        try:
            yield self
        finally:
            for namespace, attr, original, _ in self.patches:
                setattr(namespace, attr, original)
            self.seen_domains.clear()

    @contextmanager
    def span(self, name: str, attrs: dict | None = None):
        span = Span(name, self.stack[-1] if self.stack else -1, attrs or {})
        self.spans.append(span)
        self.stack.append(len(self.spans) - 1)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self.stack.pop()


def _self_times(spans: list[Span]) -> list[float]:
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list[Span], cycles: int) -> dict[str, float]:
    """Per-layer numbers. Counts and seconds are per cycle of the workload's
    mix, so runs that complete different numbers of cycles compare directly;
    rates, ratios and latencies are as measured."""
    own = _self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def idx(*names):
        return [i for name in names for i in by_name.get(name, ())]

    def self_s(indices) -> float:
        return sum(own[i] for i in indices)

    out: dict[str, float] = {}
    per_cycle = 1.0 / cycles

    wt = idx("enumeration.win_table")
    for label, subset in (("", wt),
                          (".narrow", [i for i in wt if not spans[i].attrs["wide"]]),
                          (".wide", [i for i in wt if spans[i].attrs["wide"]])):
        builds = [i for i in subset if spans[i].attrs["build"]]
        coalitions = sum(1 << spans[i].attrs["agents"] for i in builds)
        key = f"enumeration.win_table{label}"
        out[f"{key}.calls"] = len(subset) * per_cycle
        out[f"{key}.builds"] = len(builds) * per_cycle
        out[f"{key}.self_s"] = self_s(subset) * per_cycle
        out[f"{key}.coalitions"] = coalitions * per_cycle
        out[f"{key}.coalitions_per_s"] = _rate(coalitions, self_s(builds))
    out["enumeration.reduce.self_s"] = self_s(idx(
        "enumeration.criticality_counts", "enumeration.criticality_size_counts",
        "enumeration.minimal_winning_masks", "enumeration.size_table")) * per_cycle

    out["powerindex.exact.self_s"] = self_s(idx(
        "powerindex.banzhaf_exact", "powerindex.shapley_exact")) * per_cycle
    for kind in ("banzhaf", "shapley"):
        calls = idx(f"powerindex.{kind}_mc_all")
        samples = sum(spans[i].attrs["samples"] for i in calls)
        busy = self_s(calls + idx(f"powerindex.{kind}_mc", "powerindex.derive_seed"))
        key = f"powerindex.mc.{kind}"
        out[f"{key}.calls"] = len(calls) * per_cycle
        out[f"{key}.samples"] = samples * per_cycle
        out[f"{key}.self_s"] = busy * per_cycle
        out[f"{key}.samples_per_s"] = _rate(samples, busy)

    for fn in ("max_excess", "least_core_value", "veto_players"):
        calls = idx(f"stability.{fn}")
        out[f"stability.{fn}.calls"] = len(calls) * per_cycle
        out[f"stability.{fn}.self_s"] = self_s(calls) * per_cycle
    least_core = set(idx("stability.least_core_value"))
    rounds = 0
    for i in idx("lp.solve_exact"):
        parent = spans[i].parent
        while parent >= 0 and parent not in least_core:
            parent = spans[parent].parent
        rounds += parent >= 0
    out["stability.least_core.rounds"] = _rate(rounds, len(least_core))

    for fn in ("solve_exact", "highs"):
        calls = idx(f"lp.{fn}")
        out[f"lp.{fn}.calls"] = len(calls) * per_cycle
        out[f"lp.{fn}.self_s"] = self_s(calls) * per_cycle
        out[f"lp.{fn}.rows"] = _rate(sum(spans[i].attrs["rows"] for i in calls), len(calls))

    essential = idx("trees.essential_vertices")
    out["trees.essential_vertices.calls"] = len(essential) * per_cycle
    out["trees.essential_vertices.self_s"] = self_s(essential) * per_cycle
    out["trees.essential_vertices.useful_ratio"] = _rate(
        sum("raised" not in spans[i].attrs for i in essential), len(essential))

    out["domain.from_dict.self_s"] = self_s(idx("domain.domain_from_dict")) * per_cycle
    for fn in ("validate", "classify"):
        calls = idx(f"domain.{fn}")
        out[f"domain.{fn}.calls"] = len(calls) * per_cycle
        out[f"domain.{fn}.self_s"] = self_s(calls) * per_cycle

    roots = [i for i, s in enumerate(spans) if s.name == "cli"]
    for command in COMMANDS:
        latencies = [spans[i].end - spans[i].start for i in roots
                     if spans[i].attrs["command"] == command]
        out[f"cli.{command}.calls"] = len(latencies) * per_cycle
        out[f"cli.{command}.p50_s"] = median(latencies) if latencies else 0.0
    out["cli.self_s"] = self_s(roots) * per_cycle

    out["reductions.generate.self_s"] = self_s(
        [i for i, s in enumerate(spans) if s.name.startswith("reductions.")]) * per_cycle
    return out
