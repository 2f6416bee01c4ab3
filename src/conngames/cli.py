"""Command-line surface: load domain/instance files, dispatch to solvers, and
emit deterministic text/JSON/CSV reports. ``_plan`` is the one place where a
method is chosen, exact or Monte Carlo; how an exact answer is computed, by
the closed forms of a unanimity game or from the win table, is the exact
solvers' choice, and each report names it by the tag they return.

Exit codes: 0 ok, 2 input or usage error, 3 resource cap exceeded,
4 degenerate domain. The handlers raise on every refusal, and ``main`` alone
maps the exception to its code: ``CapExceededError`` to 3,
``DegenerateDomainError`` to 4 and any other ``ValueError`` (unreadable,
malformed or invalid input, an unwritable output path) to 2. Reports never
mix Monte Carlo estimates with exact values without per-value method tags,
and contain nothing run-dependent (no timings), so identical inputs and seeds
reproduce identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import warnings
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import enumeration, powerindex, reductions, stability
from .domain import classify, domain_from_dict, domain_to_dict
from .errors import CapExceededError, DegenerateDomainError

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_DEGENERATE = 4

ENV_EXACT_CAP = "CONNGAMES_EXACT_CAP"
_EXPONENT = re.compile(r"e([-+]?[\d_]+)\s*\Z", re.IGNORECASE)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, RecursionError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _load_domain(path: str):
    data = _load_json(path)
    domain = domain_from_dict(data)
    report = domain._validation
    if not report.ok:
        raise ValueError(f"{path} failed validation: " + "; ".join(report.violations))
    return domain


def _load_imputation(path: str) -> list[Fraction]:
    data = _load_json(path)
    if isinstance(data, dict):
        data = data.get("imputation")
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a payoff list or {{\"imputation\": [...]}}")
    payoffs = []
    for i, entry in enumerate(data):
        try:
            # Fraction("1e999999999") would build a billion-digit integer, and
            # Fraction(True) reads a JSON boolean as a number.
            exponent = _EXPONENT.search(entry) if isinstance(entry, str) else None
            if isinstance(entry, bool) or exponent and \
                    abs(int(exponent[1])) > sys.int_info.default_max_str_digits:
                raise ValueError
            payoffs.append(Fraction(entry))
        except (TypeError, ValueError, ArithmeticError):
            raise ValueError(f"{path}: imputation entry {i} is not a number: "
                             f"{entry!r}") from None
    return payoffs


def _exact_cap(args) -> int:
    """The enumeration cap: ``--exact-cap``, else the environment, else 24."""
    value, source = args.exact_cap, "--exact-cap"
    if value is None:
        env = os.environ.get(ENV_EXACT_CAP)
        if not env:
            return powerindex.DEFAULT_ENUMERATION_CAP
        source = ENV_EXACT_CAP
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"{ENV_EXACT_CAP} must be an integer, got {env!r}") from None
    if value < 0:
        raise ValueError(f"{source} must be nonnegative, got {value}")
    return value


def _rational(value) -> str | None:
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, int):
        return str(Fraction(value))
    return None


def _domain_summary(domain, classification) -> dict:
    return {
        "agents": domain.n_agents,
        "vertices": domain.vertex_count,
        "edges": len(domain.edges),
        "degenerate_all_win": classification.degenerate_all_win,
        "degenerate_all_lose": classification.degenerate_all_lose,
        "is_tree": classification.is_tree,
    }


def _json_text(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for string-keyed data,
    without the pure-Python encoder that ``indent`` selects: its nested
    closures leave a reference cycle behind on every call."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return int.__repr__(value)
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict) and value:
        items = [f"{inner}{encode_basestring_ascii(key)}: {_json_text(item, inner)}"
                 for key, item in sorted(value.items())]
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if isinstance(value, (list, tuple)) and value:
        items = [inner + _json_text(item, inner) for item in value]
        return "[\n" + ",\n".join(items) + "\n" + indent + "]"
    return json.dumps(value)


def _emit_json(report: dict) -> None:
    print(_json_text(report))


def _summary_lines(summary: dict) -> list[str]:
    flags = []
    if summary["degenerate_all_win"]:
        flags.append("degenerate: all coalitions win")
    if summary["degenerate_all_lose"]:
        flags.append("degenerate: all coalitions lose")
    if summary["is_tree"]:
        flags.append("tree")
    suffix = f" [{', '.join(flags)}]" if flags else ""
    return [f"domain: {summary['vertices']} vertices, {summary['edges']} edges, "
            f"{summary['agents']} agents{suffix}"]


def _plan(domain, method: str, cap: int) -> str:
    """``"exact"`` where the exact solvers answer within ``cap`` agents, else
    ``"mc"``; ``--method exact`` and ``mc`` force one. ``--method tree`` is
    exact, refused unless the veto agents win on their own."""
    if method == "tree":
        classification = classify(domain)
        if classification.degenerate:
            kind = ("every coalition wins" if classification.degenerate_all_win
                    else "even the grand coalition loses")
            raise ValueError(f"tree method not applicable: {kind}; tree solvers need a "
                             f"non-degenerate domain")
        if not classification.veto_wins:
            raise ValueError("tree method not applicable: the veto agents do not win "
                             "on their own; use the general solvers")
        return "exact"
    if method != "auto":
        return method
    try:
        enumeration._exact_game(domain, cap)
    except CapExceededError:
        return "mc"
    return "exact"


def _value_cell(value: Fraction) -> str:
    return f"{value} ({float(value)!r})"


# ---------------------------------------------------------------- indices

def _index_payload(domain, vector: powerindex.IndexVector) -> dict:
    values = []
    for agent, value in enumerate(vector.values):
        values.append({
            "agent": agent,
            "vertex": domain.vertex_of(agent),
            "value_rational": _rational(value),
            "value_float": float(value),
        })
    ranking = sorted(range(domain.n_agents),
                     key=lambda i: (-float(vector.values[i]), i))
    return {
        "index_kind": vector.kind,
        "method": vector.method,
        "samples": vector.samples,
        "seed": vector.seed,
        "values": values,
        "ranking": ranking,
    }


def _render_indices_text(summary, payloads) -> None:
    for line in _summary_lines(summary):
        print(line)
    for payload in payloads:
        meta = payload["method"]
        if payload["samples"] is not None:
            meta += f", samples={payload['samples']}, seed={payload['seed']}"
        print(f"{payload['index_kind']} ({meta}):")
        by_agent = {row["agent"]: row for row in payload["values"]}
        for rank, agent in enumerate(payload["ranking"], start=1):
            row = by_agent[agent]
            rational = row["value_rational"]
            shown = (f"{rational} ({row['value_float']!r})" if rational is not None
                     else repr(row["value_float"]))
            print(f"  #{rank} agent {agent} (vertex {row['vertex']}): {shown}")


def _render_indices_csv(payloads) -> None:
    print("agent,vertex,index_kind,value_rational,value_float,method")
    for payload in payloads:
        by_agent = {row["agent"]: row for row in payload["values"]}
        for agent in payload["ranking"]:
            row = by_agent[agent]
            rational = row["value_rational"] or ""
            print(f"{agent},{row['vertex']},{payload['index_kind']},"
                  f"{rational},{row['value_float']!r},{payload['method']}")


def cmd_indices(args) -> int:
    domain = _load_domain(args.domain)
    cap = _exact_cap(args)
    classification = classify(domain)
    kinds = ["banzhaf", "shapley"] if args.index == "both" else [args.index]

    method = _plan(domain, args.method, cap)

    vectors = []
    for kind in kinds:
        if method == "exact":
            vectors.append(powerindex.banzhaf_exact(domain, cap=cap) if kind == "banzhaf"
                           else powerindex.shapley_exact(domain, cap=cap))
        else:
            params = powerindex.ApproxParams(args.epsilon, args.delta, args.seed)
            vectors.append(powerindex.banzhaf_mc_all(domain, params) if kind == "banzhaf"
                           else powerindex.shapley_mc_all(domain, params))

    summary = _domain_summary(domain, classification)
    payloads = [_index_payload(domain, vector) for vector in vectors]
    if args.format == "json":
        _emit_json({"schema_version": SCHEMA_VERSION, "command": "indices",
                    "domain": summary, "results": payloads})
    elif args.format == "csv":
        _render_indices_csv(payloads)
    else:
        _render_indices_text(summary, payloads)
    return EXIT_OK


# ---------------------------------------------------------------- core

def cmd_core(args) -> int:
    domain = _load_domain(args.domain)
    classification = classify(domain)
    stability._refuse_degenerate(domain, "core")

    core = stability.veto_players(domain)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "core",
        "domain": _domain_summary(domain, classification),
        "veto_agents": list(core.veto_agents),
        "core_empty": core.is_empty,
    }
    if args.imputation:
        payoffs = _load_imputation(args.imputation)
        report["in_core"] = stability.is_in_core(domain, payoffs)

    if args.format == "json":
        _emit_json(report)
    else:
        for line in _summary_lines(report["domain"]):
            print(line)
        agents = ", ".join(str(a) for a in core.veto_agents) or "(none)"
        print(f"veto agents: {agents}")
        print(f"core empty: {'yes' if core.is_empty else 'no'}")
        if "in_core" in report:
            print(f"in core: {'yes' if report['in_core'] else 'no'}")
    return EXIT_OK


# ---------------------------------------------------------------- ecm

def cmd_ecm(args) -> int:
    if not math.isfinite(args.epsilon):
        raise ValueError("epsilon must be a finite number")
    if args.epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    domain = _load_domain(args.domain)
    payoffs = _load_imputation(args.imputation)
    cap = _exact_cap(args)
    classification = classify(domain)

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "ecm",
        "domain": _domain_summary(domain, classification),
        "epsilon": args.epsilon,
    }
    excess = stability.max_excess(domain, payoffs, cap=cap, epsilon=args.epsilon)
    verdict = bool(excess.epsilon_verdict)
    if excess.method == enumeration.TREE_CLOSED_FORM:
        essential = classification.veto_agents
        report["method"] = "tree-essential-sum"
        report["essential_agents"] = list(essential)
        report["essential_payment"] = float(sum((payoffs[i] for i in essential), Fraction(0)))
        report["threshold"] = 1.0 - args.epsilon
    else:
        report["method"] = "exact-enumeration"
        report["max_excess"] = float(excess.max_excess)
        report["max_excess_rational"] = _rational(excess.max_excess)
        report["witness"] = sorted(excess.witness.members())
    report["in_epsilon_core"] = verdict

    if args.format == "json":
        _emit_json(report)
    else:
        for line in _summary_lines(report["domain"]):
            print(line)
        print(f"epsilon: {args.epsilon!r}")
        print(f"method: {report['method']}")
        if report["method"] == "tree-essential-sum":
            print(f"essential payment: {report['essential_payment']!r} "
                  f"(threshold 1 - eps = {report['threshold']!r})")
        else:
            print(f"max excess: {_value_cell(Fraction(report['max_excess_rational']))}")
            witness = ", ".join(str(a) for a in report["witness"]) or "(empty)"
            print(f"witness coalition: {witness}")
        print(f"in epsilon-core: {'yes' if verdict else 'no'}")
    return EXIT_OK


# ---------------------------------------------------------------- leastcore

def cmd_leastcore(args) -> int:
    domain = _load_domain(args.domain)
    cap = _exact_cap(args)
    classification = classify(domain)

    result = stability.least_core_value(domain, cap=cap)
    epsilon, imputation, method = result.epsilon, result.imputation, result.method

    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "leastcore",
        "domain": _domain_summary(domain, classification),
        "method": method,
        "epsilon_min": float(epsilon),
        "epsilon_min_rational": _rational(epsilon),
        "imputation": [
            {"agent": i, "value_rational": _rational(v), "value_float": float(v)}
            for i, v in enumerate(imputation)
        ],
    }
    if args.format == "json":
        _emit_json(report)
    else:
        for line in _summary_lines(report["domain"]):
            print(line)
        print(f"method: {method}")
        print(f"least-core epsilon: {_value_cell(epsilon)}")
        for i, v in enumerate(imputation):
            print(f"  agent {i}: {_value_cell(v)}")
    return EXIT_OK


# ---------------------------------------------------------------- generate

def _write_json(path: Path, payload: dict) -> None:
    try:
        path.write_text(_json_text(payload) + "\n", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def cmd_generate(args) -> int:
    data = _load_json(args.instance)
    out = Path(args.out)

    if args.kind == "setcover":
        instance = reductions.setcover_from_dict(data)
        domain, target = reductions.setcover_to_cg(instance)
        uncovered = instance.uncovered_items()
        if uncovered:
            more = f" ... and {len(uncovered) - 10} more" if len(uncovered) > 10 else ""
            print(f"warning: items {list(uncovered[:10])}{more} are in no set; "
                  f"no cover exists (count is 0)", file=sys.stderr)
        payload = domain_to_dict(domain)
        payload["meta"] = {"construction": "setcover", "target_agent": target}
        _write_json(out, payload)
        print(f"wrote domain ({domain.vertex_count} vertices, {domain.n_agents} agents, "
              f"target agent {target}) to {out}")
        return EXIT_OK

    instance = reductions.vertexcover_from_dict(data)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        domain, imputation, epsilon = reductions.vertexcover_to_ecm(instance)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    payload = domain_to_dict(domain)
    payload["meta"] = {"construction": "vertexcover", "threshold": instance.threshold}
    _write_json(out, payload)
    sidecar = out.with_name(out.stem + ".imputation.json")
    _write_json(sidecar, {
        "imputation": [str(v) for v in imputation],
        "imputation_float": [float(v) for v in imputation],
        "epsilon": str(epsilon),
        "epsilon_float": float(epsilon),
    })
    print(f"wrote domain ({domain.vertex_count} vertices, {domain.n_agents} agents) "
          f"to {out}")
    print(f"wrote equal imputation and epsilon {epsilon} to {sidecar}")
    return EXIT_OK


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conngames",
        description="Analyze connectivity games: power indices, core, "
                    "epsilon-core, least core.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("indices", help="per-agent Banzhaf / Shapley indices")
    p.add_argument("domain", help="domain JSON file")
    p.add_argument("--index", choices=["banzhaf", "shapley", "both"], default="both")
    p.add_argument("--method", choices=["auto", "exact", "tree", "mc"], default="auto")
    p.add_argument("--epsilon", type=float, default=0.05, help="MC accuracy target")
    p.add_argument("--delta", type=float, default=0.05, help="MC failure probability")
    p.add_argument("--seed", type=int, default=0, help="MC random seed")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.add_argument("--exact-cap", type=int, default=None,
                   help=f"agents allowed for exact enumeration "
                        f"(default {powerindex.DEFAULT_ENUMERATION_CAP}, "
                        f"env {ENV_EXACT_CAP})")
    p.set_defaults(func=cmd_indices)

    p = sub.add_parser("core", help="veto agents and core membership")
    p.add_argument("domain")
    p.add_argument("--imputation", help="payoff JSON file to test for core membership")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_core)

    p = sub.add_parser("ecm", help="epsilon-core membership of an imputation")
    p.add_argument("domain")
    p.add_argument("imputation", help="payoff JSON file")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--exact-cap", type=int, default=None,
                   help=f"agents allowed for exact enumeration on non-trees "
                        f"(default {powerindex.DEFAULT_ENUMERATION_CAP}, "
                        f"env {ENV_EXACT_CAP})")
    p.set_defaults(func=cmd_ecm)

    p = sub.add_parser("leastcore", help="least-core value and an optimal imputation")
    p.add_argument("domain")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_leastcore, exact_cap=None)  # CONNGAMES_EXACT_CAP only

    p = sub.add_parser("generate", help="build a domain from a covering instance")
    p.add_argument("kind", choices=["setcover", "vertexcover"])
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("--out", required=True, help="output domain JSON path")
    p.set_defaults(func=cmd_generate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # One parser per process: building one costs about 1 ms and leaves a few
    # hundred objects in reference cycles, which outlive the query as garbage.
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as exc:
        return _fail(str(exc), EXIT_CAP)
    except DegenerateDomainError as exc:  # a ValueError, so caught before one
        return _fail(str(exc), EXIT_DEGENERATE)
    except ValueError as exc:
        return _fail(str(exc), EXIT_INPUT)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
