"""Command-line surface: load domain/instance files, dispatch to solvers, and
emit deterministic text/JSON/CSV reports. ``_plan`` is the one place where a
method is chosen, exact or Monte Carlo; how an exact answer is computed, by
the closed forms of a unanimity game, from the win table, for ``ecm`` and
``leastcore`` by the Steiner oracle, or for a ``leastcore`` whose primaries
lie in two regions by one max-flow (``exact-maxflow``), is the exact
solvers' choice, and each report names it by the tag they return. The
enumeration cap bounds the win table only; past it a query has one fixed
work budget, which ``ecm`` spends on one search and ``leastcore`` on its
rounds' searches and programs. The max-flow is polynomial, and spends none.

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
import sys
import warnings
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import enumeration, powerindex, reductions, stability
from .domain import classify, domain_from_dict, domain_to_dict
from .errors import CapExceededError, DegenerateDomainError

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_DEGENERATE = 4

ENV_EXACT_CAP = "CONNGAMES_EXACT_CAP"


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
            payoffs.append(stability._to_fraction(entry))
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


def _converted(values) -> list[tuple[float, str | None]]:
    """``float`` and ``_rational`` of each value: a float as it is, any other
    value once per distinct object, as the closed forms repeat two
    ``Fraction`` objects over every agent. Keyed by identity: hashing a
    ``Fraction`` costs more than the conversions it saves."""
    seen: dict[int, tuple[float, str | None]] = {}
    out = []
    for value in values:
        pair = (value, None) if type(value) is float else seen.get(id(value))
        if pair is None:
            pair = seen[id(value)] = (float(value), _rational(value))
        out.append(pair)
    return out


def _domain_summary(domain, classification) -> dict:
    return {
        "agents": domain.n_agents,
        "vertices": domain.vertex_count,
        "edges": len(domain.edges),
        "degenerate_all_win": classification.degenerate_all_win,
        "degenerate_all_lose": classification.degenerate_all_lose,
    }


def _json_text(value, indent: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for string-keyed data,
    without the pure-Python encoder that ``indent`` selects: its nested
    closures leave a reference cycle behind on every call."""
    pieces: list[str] = []
    _json_pieces(value, indent, pieces)
    return "".join(pieces)


def _json_pieces(value, indent: str, out: list[str]) -> None:
    """Append the pieces of ``_json_text(value, indent)`` to ``out``. A
    container writes its str, int and finite float items inline, found by
    exact type, so it costs one call, not one per leaf."""
    if isinstance(value, dict) and value:
        inner = indent + "  "
        sep, comma = "{\n" + inner, ",\n" + inner
        for key in sorted(value):
            out.append(sep + encode_basestring_ascii(key) + ": ")
            sep, item = comma, value[key]
            kind = type(item)
            if kind is str:
                out.append(encode_basestring_ascii(item))
            elif kind is int:
                out.append(int.__repr__(item))
            elif kind is float and math.isfinite(item):
                out.append(float.__repr__(item))
            else:
                _json_pieces(item, inner, out)
        out.append("\n" + indent + "}")
    elif isinstance(value, (list, tuple)) and value:
        inner = indent + "  "
        sep, comma = "[\n" + inner, ",\n" + inner
        for item in value:
            out.append(sep)
            sep, kind = comma, type(item)
            if kind is str:
                out.append(encode_basestring_ascii(item))
            elif kind is int:
                out.append(int.__repr__(item))
            elif kind is float and math.isfinite(item):
                out.append(float.__repr__(item))
            else:
                _json_pieces(item, inner, out)
        out.append("\n" + indent + "]")
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, int) and not isinstance(value, bool):
        out.append(int.__repr__(value))
    elif isinstance(value, float) and math.isfinite(value):
        out.append(float.__repr__(value))
    else:
        out.append(json.dumps(value))


def _emit_json(report: dict) -> None:
    print(_json_text(report))


def _summary_lines(summary: dict) -> list[str]:
    flags = []
    if summary["degenerate_all_win"]:
        flags.append("degenerate: all coalitions win")
    if summary["degenerate_all_lose"]:
        flags.append("degenerate: all coalitions lose")
    suffix = f" [{', '.join(flags)}]" if flags else ""
    return [f"domain: {summary['vertices']} vertices, {summary['edges']} edges, "
            f"{summary['agents']} agents{suffix}"]


def _plan(domain, method: str, cap: int) -> str:
    """``"exact"`` where the exact solvers answer within ``cap`` agents, else
    ``"mc"``; ``--method exact`` and ``mc`` force one."""
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
    converted = _converted(vector.values)
    values = [{"agent": agent, "vertex": vertex, "value_rational": rational,
               "value_float": value_float}
              for agent, (vertex, (value_float, rational))
              in enumerate(zip(domain.standard, converted))]
    # Descending value, ties by agent: the sort is stable over ascending agents.
    ranking = sorted(range(domain.n_agents), key=[-f for f, _ in converted].__getitem__)
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
    # Validated whatever the plan, so an argv's validity does not depend on
    # the domain's size.
    params = powerindex.ApproxParams(args.epsilon, args.delta, args.seed)

    method = _plan(domain, args.method, cap)

    vectors = []
    for kind in kinds:
        if method == "exact":
            vectors.append(powerindex.banzhaf_exact(domain, cap=cap) if kind == "banzhaf"
                           else powerindex.shapley_exact(domain, cap=cap))
        else:
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
    report["method"] = excess.method
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
        print(f"max excess: {_value_cell(excess.max_excess)}")
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
            {"agent": i, "value_rational": rational, "value_float": value_float}
            for i, (value_float, rational) in enumerate(_converted(imputation))
        ],
    }
    if args.format == "json":
        _emit_json(report)
    else:
        for line in _summary_lines(report["domain"]):
            print(line)
        print(f"method: {method}")
        print(f"least-core epsilon: {_value_cell(epsilon)}")
        for row in report["imputation"]:
            print(f"  agent {row['agent']}: {row['value_rational']} ({row['value_float']!r})")
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
    p.add_argument("--method", choices=["auto", "exact", "mc"], default="auto")
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
                   help=f"agents allowed for the exact win table "
                        f"(default {powerindex.DEFAULT_ENUMERATION_CAP}, "
                        f"env {ENV_EXACT_CAP}); the Steiner oracle answers "
                        f"past it where one search fits the query's fixed "
                        f"work budget")
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
