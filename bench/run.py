"""Closed-loop benchmark of the conngames CLI.

One client in one process calls ``conngames.cli.main(argv)`` on generated
domain files, strictly one query at a time, with stdout captured. Run from the
root of a source checkout:

    python3 bench/run.py --workload exact --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from spans around each module's public functions. Outputs
are checked after the timed loop. Human-readable lines come first; the last
line of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. Each run also appends a fuller record (with the environment)
to ``bench/results/runs.jsonl`` or to ``--out``; ``bench/compare.py`` reads
two such files.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# The percentile reported as query_s.tail, per workload: the highest one with
# at least 10 samples beyond it at the baseline query count (see README).
# A run with fewer samples steps down this ladder and says so.
TAIL_PERCENTILE = {"exact": 95.0, "leastcore": 95.0, "beyond-cap": 95.0}
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
SETUP_PROBES = 5
# Speed probes each set-up child runs once it is ready, and the parent runs
# before the timed loop.
SETUP_SPEED_PROBES = 30
WARM_SPEED_PROBES = 20


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "results" / "runs.jsonl",
                        help="file the full run record is appended to")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------- queries

class Outcome:
    __slots__ = ("query", "code", "stdout", "seconds")

    def __init__(self, query, code, stdout, seconds):
        self.query, self.code, self.stdout, self.seconds = query, code, stdout, seconds


def run_query(cli_main, query) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli_main(query.argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an escaped exception is a failed query, not a crash
        code = "exception: " + traceback.format_exc().strip().splitlines()[-1]
    return Outcome(query, code, out.getvalue(), time.perf_counter() - started)


def setup(workload: str, seed: int, workdir: Path):
    """Import, generate inputs and warm up; returns the pieces and phase times."""
    phases = {}
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    from conngames import cli

    phases["import_s"] = time.perf_counter() - started
    import workloads

    started = time.perf_counter()
    wl = workloads.build(workload, seed, workdir)
    phases["inputs_s"] = time.perf_counter() - started
    started = time.perf_counter()
    warm = [run_query(cli.main, q) for q in wl.warmups]
    phases["warmup_s"] = time.perf_counter() - started
    return cli, wl, warm, phases


def probe_setup(args) -> int:
    """Child process: set up once, report the phase times, then clean up."""
    workdir = Path(tempfile.mkdtemp(prefix="probe-", dir=BENCH_DIR / ".work"))
    try:
        _, _, warm, phases = setup(args.workload, args.seed, workdir)
        phases["warmup_ok"] = all(o.code == 0 for o in warm)
        print(json.dumps(phases), flush=True)
        import speed

        print(json.dumps(speed.probes(SETUP_SPEED_PROBES)), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure_setup(args) -> tuple[list[float], list[float], dict]:
    """Wall time from process start to ready, over fresh processes; each one
    pays the imports, input generation and warm-up a user run pays. Returns
    the raw walls, the walls at reference speed (scaled by the speed probes
    each child runs once it is ready) and the median phase times."""
    import speed

    walls, scaled, phases = [], [], []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
               "--workload", args.workload, "--seed", str(args.seed)]
        started = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            walls.append(time.perf_counter() - started)
            rest = child.stdout.read()
            child.wait(timeout=120)
        if child.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe exited with {child.returncode}")
        scaled.append(speed.scale(walls[-1], json.loads(rest)))
        phases.append(json.loads(line))
    if not all(p["warmup_ok"] for p in phases):
        raise RuntimeError("a warm-up query failed in a set-up probe")
    return walls, scaled, {key: median(p[key] for p in phases)
                           for key in ("import_s", "inputs_s", "warmup_s")}


# ---------------------------------------------------------------- timed loop

def timed_loop(cli_main, cycles, seconds: float, tracer=None):
    """Run whole cycles until ``seconds`` have passed.

    Untraced, returns one outcome per query, and after each query runs a
    speed probe; the start times of queries and probes and the probe
    durations are returned too. Traced, every query runs twice,
    untraced and traced, in an order that alternates by cycle; the traced
    outcomes are returned alongside.
    """
    import speed

    plain, traced = [], []
    starts, probe_starts, probes = [], [], []
    if tracer is None:
        speed.probes(WARM_SPEED_PROBES)
    done = 0
    started = time.perf_counter()
    cpu_started = time.process_time()
    while time.perf_counter() - started < seconds:
        for query in cycles[done % len(cycles)]:
            if tracer is None:
                starts.append(time.perf_counter())
                plain.append(run_query(cli_main, query))
                probe_starts.append(time.perf_counter())
                probes.append(speed.probe())
                continue
            for traced_turn in ((False, True) if done % 2 == 0 else (True, False)):
                if traced_turn:
                    with tracer.installed(), tracer.span("cli", {"command": query.command}):
                        traced.append(run_query(cli_main, query))
                else:
                    plain.append(run_query(cli_main, query))
        done += 1
    wall = time.perf_counter() - started
    cpu_ratio = (time.process_time() - cpu_started) / wall
    return plain, traced, (starts, probe_starts, probes), done, wall, cpu_ratio


def _tail(latencies: list[float], workload: str) -> tuple[float, float]:
    ordered = sorted(latencies)
    n = len(ordered)
    pct = next((p for p in TAIL_LADDER
                if p <= TAIL_PERCENTILE[workload] and n * (1 - p / 100) >= 10),
               TAIL_LADDER[-1])
    return ordered[max(1, math.ceil(n * pct / 100)) - 1], pct  # nearest rank


def check_outcomes(outcomes) -> tuple[list[str], list[str]]:
    """Failure reasons, one per failed query, and the checker's self-test
    misses on one passing output of each kind."""
    import checks

    verdicts: dict[tuple[int, object, str], str | None] = {}
    failures, samples = [], {}
    for o in outcomes:
        key = (id(o.query), o.code, o.stdout)
        if key not in verdicts:
            verdicts[key] = (checks.check(o.query, o.code, o.stdout)
                             if isinstance(o.code, int) else o.code)
        reason = verdicts[key]
        if reason is not None:
            failures.append(f"{' '.join(o.query.argv[:2])}: {reason}")
        else:
            method = re.search(r'"method": "([^"]+)"', o.stdout)
            kind = (o.query.check, tuple(sorted(o.query.ctx)), method and method[1])
            samples.setdefault(kind, (o.query, o.stdout))
    return failures, checks.self_test(samples.values())


# ---------------------------------------------------------------- record

def environment(seed: int) -> dict:
    import numpy

    import envinfo

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": envinfo.cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": envinfo.package_version("scipy"),
        "blas": envinfo.blas(),
        "git_commit": envinfo.git_commit(ROOT),
        "seed": seed,
    }


def _declared_units() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {section: {m["name"]: m["unit"] for m in spec[section]}
            for section in ("end_to_end", "per_layer")}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "conngames" / "__init__.py").is_file():
        print(f"error: no conngames sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    (BENCH_DIR / ".work").mkdir(exist_ok=True)
    if args.probe_setup:
        return probe_setup(args)
    units = _declared_units()["per_layer" if args.trace else "end_to_end"]

    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2

    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH_DIR / ".work"))
    try:
        cli, wl, warm, _ = setup(args.workload, args.seed, workdir)
        setup_walls, setup_scaled, setup_phases = measure_setup(args)
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
        plain, traced, timeline, cycles, wall, cpu_ratio = timed_loop(
            cli.main, wl.cycles, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        failures, missed = check_outcomes(warm + plain + traced)
        for o, t in zip(plain, traced):
            if (o.code, o.stdout) != (t.code, t.stdout):
                failures.append(f"{' '.join(o.query.argv[:2])}: output differs when traced")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import speed

    latencies = [o.seconds for o in plain]
    # End-to-end times are at reference speed (see speed.py); raw ones go
    # into the record.
    starts, probe_starts, probes = timeline
    scaled = (speed.normalise(starts, latencies, probe_starts, probes)
              if probes else latencies)
    tail, tail_pct = _tail(scaled, args.workload)
    attempted = len(warm) + len(plain) + len(traced)
    info = {
        "cycles": cycles,
        "queries": len(plain),
        "loop_s": wall,
        "query_s.tail.percentile": tail_pct,
        "query_s.tail.samples": len(latencies),
        "failed_frac": len(failures) / attempted,
        "run.cpu_ratio": cpu_ratio,
        "setup_probes_s": setup_walls,
        "setup_probes_scaled_s": setup_scaled,
        "speed_probe_s.median": median(probes) if probes else None,
        "raw.setup_s": median(setup_walls),
        "raw.queries_per_s": len(plain) / wall,
        "raw.query_s.p50": median(latencies),
        "raw.query_s.tail": _tail(latencies, args.workload)[0],
        "self_test_missed": missed,
    }
    if args.trace:
        metrics = tracing.layer_metrics(tracer.spans, cycles)
        metrics.update({f"setup.{key}": value for key, value in setup_phases.items()})
        metrics["trace.overhead_frac"] = (
            sum(o.seconds for o in traced) / sum(latencies) - 1.0)
    else:
        metrics = {
            "setup_s": median(setup_scaled),
            "queries_per_s": len(plain) / sum(scaled),
            "query_s.p50": median(scaled),
            "query_s.tail": tail,
            "peak_rss_mb": peak_rss_mb,
        }
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} are not declared "
              f"as BENCHMARK.json declares them", file=sys.stderr)
        return 1

    correct = not failures and not missed
    result = {"correct": correct, "attempted": attempted, "failed": len(failures),
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in sorted(metrics.items())}}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, info=info, env=environment(args.seed))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    with args.out.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    if args.trace:
        spans = args.out.with_name(f"spans-{args.workload}-{args.seed}.jsonl")
        with spans.open("w", encoding="utf-8") as handle:
            handle.writelines(json.dumps(s.as_dict()) + "\n" for s in tracer.spans)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(plain)} queries in {cycles} cycles, {wall:.2f} s")
    for name, value in sorted(metrics.items()):
        print(f"  {name:44s} {value:14.6g} {units[name]}")
    print(f"  {'failed_frac':44s} {info['failed_frac']:14.6g} ratio "
          f"({len(failures)} of {attempted})")
    print(f"  query_s.tail is p{tail_pct:g} of {len(latencies)} samples; "
          f"run.cpu_ratio {cpu_ratio:.3f}")
    env = record["env"]
    print(f"  env: {env['nproc']} cpus ({env['cpu_model']}), python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, {env['blas']['name']} "
          f"{env['blas']['version']} with {env['blas']['threads']} threads, "
          f"commit {env['git_commit']}")
    for line in (failures[:10] + missed):
        print(f"  FAILED {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
