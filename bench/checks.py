"""Output checks, run after the timed loop.

Each check takes a query and the stdout it produced and returns None when the
output is right, or a short reason when it is not. Checks lean on identities
and on :mod:`oracle` rather than on re-running the same solver:

* Shapley values from exact or closed-form methods sum to exactly 1.
* ``in_epsilon_core`` equals (max excess <= epsilon), with the CLI's
  documented non-strict tolerance of 1e-9.
* Veto agents match a set-based search, and ``core_empty`` equals (no veto
  agents). Tree closed forms must put their mass on exactly those agents.
* Set cover: target Banzhaf x 2^(m-1) = ``count_set_covers``.
* Vertex cover: max excess = 1 - tau/n, tau from ``min_vertex_cover``.
* Least core: the imputation is nonnegative, sums to the grand value, and,
  when the LP is exact, attains its epsilon under ``max_excess``.
* Monte Carlo estimates on the small forced domains lie within 3 epsilon of
  ``banzhaf_exact`` / ``shapley_exact`` (Hoeffding failure odds about delta^9).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import conngames
import oracle

TOL = Fraction(1, 10 ** 9)
FLOAT_TOL = 1e-9


def _fractions(values) -> list[Fraction]:
    return [Fraction(v) for v in values]


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _domain(query) -> dict:
    return query.ctx["domain"] if "domain" in query.ctx else _load(query.ctx["domain_path"])


def check_indices(query, report: dict) -> str | None:
    domain = _domain(query)
    n = len(domain["standard"])
    by_kind = {}
    for result in report["results"]:
        values = result["values"]
        if [row["agent"] for row in values] != list(range(n)):
            return f"{result['index_kind']}: agents are not 0..{n - 1}"
        if sorted(result["ranking"]) != list(range(n)):
            return f"{result['index_kind']}: ranking is not a permutation"
        floats = [row["value_float"] for row in values]
        if any(not 0.0 <= v <= 1.0 for v in floats):
            return f"{result['index_kind']}: value outside [0, 1]"
        if result["ranking"] != sorted(range(n), key=lambda i: (-floats[i], i)):
            return f"{result['index_kind']}: ranking does not follow the values"
        by_kind[result["index_kind"]] = result
    if set(by_kind) != {"banzhaf", "shapley"}:
        return f"expected banzhaf and shapley results, got {sorted(by_kind)}"

    shapley, banzhaf = by_kind["shapley"], by_kind["banzhaf"]
    if shapley["method"] == "monte-carlo":
        return _check_mc(query, domain, by_kind)
    exact = {kind: _fractions(row["value_rational"] for row in result["values"])
             for kind, result in by_kind.items()}
    for kind, result in by_kind.items():
        if any(float(v) != row["value_float"] for v, row in zip(exact[kind], result["values"])):
            return f"{kind}: value_float does not match value_rational"
    if sum(exact["shapley"]) != 1:
        return f"Shapley values sum to {sum(exact['shapley'])}, not 1"
    if shapley["method"] == "tree-closed-form":
        veto = set(oracle.veto_agents(domain))
        if not veto:
            return "tree closed form on a domain with no veto agents"
        m = len(veto)
        for i in range(n):
            want_s = Fraction(1, m) if i in veto else 0
            want_b = Fraction(1, 1 << (m - 1)) if i in veto else 0
            if exact["shapley"][i] != want_s or exact["banzhaf"][i] != want_b:
                return f"agent {i}: tree values differ from the essential-set closed form"
    if "setcover" in query.ctx:
        instance = conngames.setcover_from_dict(query.ctx["setcover"])
        covers = conngames.count_set_covers(instance)
        target = n - 1
        if exact["banzhaf"][target] * (1 << (n - 1)) != covers:
            return (f"set-cover identity: Banzhaf x 2^(m-1) = "
                    f"{exact['banzhaf'][target] * (1 << (n - 1))}, covers = {covers}")
    if banzhaf["method"] != shapley["method"]:
        return "banzhaf and shapley used different methods"
    return None


def _option(query, name: str) -> str:
    return query.argv[query.argv.index(name) + 1]


def _check_mc(query, domain: dict, by_kind: dict) -> str | None:
    epsilon = float(_option(query, "--epsilon"))
    delta = float(_option(query, "--delta"))
    samples = math.ceil(math.log(2.0 / delta) / (2.0 * epsilon ** 2))
    for result in by_kind.values():
        if result["method"] != "monte-carlo" or result["samples"] != samples:
            return f"{result['index_kind']}: expected {samples} Monte Carlo samples"
        # Each estimate is a hit count over the per-agent sample count.
        if any(abs(row["value_float"] * samples - round(row["value_float"] * samples)) > 1e-6
               for row in result["values"]):
            return f"{result['index_kind']}: an estimate is not a multiple of 1/{samples}"
    if not query.ctx.get("mc_accuracy"):
        return None
    model = conngames.domain_from_dict(domain)
    exact = {"banzhaf": conngames.banzhaf_exact(model).values,
             "shapley": conngames.shapley_exact(model).values}
    for kind, result in by_kind.items():
        for row, want in zip(result["values"], exact[kind]):
            if abs(row["value_float"] - float(want)) > 3 * epsilon:
                return (f"{kind} agent {row['agent']}: estimate {row['value_float']} "
                        f"is more than 3 epsilon from {float(want)}")
    return None


def check_ecm(query, report: dict) -> str | None:
    epsilon = Fraction(query.ctx["epsilon"])
    if report["method"] == "tree-essential-sum":
        domain = _domain(query)
        veto = oracle.veto_agents(domain)
        if report["essential_agents"] != veto:
            return f"essential agents {report['essential_agents']} != veto agents {veto}"
        payoffs = _fractions(query.ctx["payoffs"])
        excess = 1 - sum(payoffs[i] for i in veto)
    else:
        excess = Fraction(report["max_excess_rational"])
    if report["in_epsilon_core"] != (excess <= epsilon + TOL):
        return f"in_epsilon_core={report['in_epsilon_core']} but max excess {excess}"
    if "vertexcover" in query.ctx:
        instance = conngames.vertexcover_from_dict(query.ctx["vertexcover"])
        tau = conngames.min_vertex_cover(instance)
        want = 1 - Fraction(tau, instance.vertex_count)
        if excess != want:
            return f"vertex-cover identity: max excess {excess} != 1 - tau/n = {want}"
    return None


def check_core(query, report: dict) -> str | None:
    veto = oracle.veto_agents(_domain(query))
    if report["veto_agents"] != veto:
        return f"veto agents {report['veto_agents']} != {veto}"
    if report["core_empty"] != (not veto):
        return f"core_empty={report['core_empty']} with veto agents {veto}"
    return None


def check_leastcore(query, report: dict) -> str | None:
    domain = _domain(query)
    method = report["method"]
    rows = report["imputation"]
    if method == "float-lp":
        payoffs = [row["value_float"] for row in rows]
        if min(payoffs) < -FLOAT_TOL or abs(sum(payoffs) - 1.0) > FLOAT_TOL:
            return "float least-core imputation is negative or does not sum to 1"
        return None
    payoffs = _fractions(row["value_rational"] for row in rows)
    epsilon = Fraction(report["epsilon_min_rational"])
    if min(payoffs) < 0 or sum(payoffs) != 1:
        return "least-core imputation is negative or does not sum to 1"
    if method == "tree-closed-form":
        veto = set(oracle.veto_agents(domain))
        if epsilon != 0 or any(p and i not in veto for i, p in enumerate(payoffs)):
            return "tree least core pays an agent outside the veto set"
        return None
    excess = conngames.max_excess(conngames.domain_from_dict(domain), payoffs).max_excess
    if excess != epsilon:
        return f"least-core epsilon {epsilon} but the imputation's max excess is {excess}"
    return None


def check_generate(query, stdout: str) -> str | None:
    data = _load(query.ctx["out"])
    if len(data["standard"]) != query.ctx["agents"] or data["vertices"] <= 62:
        return "generated domain has the wrong size"
    if not stdout.startswith("wrote domain"):
        return "generate printed no confirmation"
    return None


_CHECKS = {"indices": check_indices, "ecm": check_ecm, "core": check_core,
           "leastcore": check_leastcore}


def check(query, code, stdout: str) -> str | None:
    """None if the query exited 0 with correct output, else why it failed."""
    if code != 0:
        return f"exit code {code}"
    try:
        if query.check == "generate":
            return check_generate(query, stdout)
        return _CHECKS[query.check](query, json.loads(stdout))
    except (IndexError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed output: {exc!r}"


def _corruptions(query, stdout: str):
    """Wrong variants of a correct output, for the checker's self-test."""
    if query.check == "generate":
        yield ""
        return
    report = json.loads(stdout)
    if query.check == "indices":
        bad = json.loads(stdout)
        row = bad["results"][-1]["values"][0]
        if row["value_rational"] is not None:
            row["value_rational"] = str(Fraction(row["value_rational"]) + Fraction(1, 7))
        row["value_float"] += 0.31 if row["value_float"] < 0.5 else -0.31
        yield json.dumps(bad)
    elif query.check == "ecm":
        yield json.dumps(dict(report, in_epsilon_core=not report["in_epsilon_core"]))
    elif query.check == "core":
        yield json.dumps(dict(report, core_empty=not report["core_empty"]))
        yield json.dumps(dict(report, veto_agents=report["veto_agents"] + [10 ** 6]))
    elif query.check == "leastcore":
        bad = json.loads(stdout)
        bad["imputation"][0]["value_float"] += 0.25
        if bad["imputation"][0]["value_rational"] is not None:
            bad["imputation"][0]["value_rational"] = str(
                Fraction(bad["imputation"][0]["value_rational"]) + Fraction(1, 4))
        yield json.dumps(bad)
    yield stdout[: len(stdout) // 2]


def self_test(samples) -> list[str]:
    """Corrupt correct outputs and confirm the checker rejects each variant.

    ``samples`` holds (query, stdout) pairs that passed their check; returns
    one message per corruption the checker let through.
    """
    missed = []
    for query, stdout in samples:
        for bad in _corruptions(query, stdout):
            if check(query, 0, bad) is None:
                missed.append(f"{query.check} {query.argv[1:2]}: corrupted output accepted")
        if check(query, 1, stdout) is None:
            missed.append(f"{query.check}: non-zero exit accepted")
    return missed
