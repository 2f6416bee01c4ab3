"""Compare two sets of benchmark runs, one row per workload and metric.

    python3 bench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds run records as ``bench/run.py --out`` appends them. Runs of
one workload and trace mode are paired in file order, so record base and
change runs alternately (base first on one pair, change first on the next).

Verdicts follow a pairing rule for noisy machines:

* improved: the change wins at least 9 in 10 pairs (ties count for neither)
  and the medians differ by more than the base runs' interquartile range;
* unresolved: the base runs spread (IQR over median) wider than the metric's
  bound, and not every change run beats every base run;
* regressed: the change's median is worse than the base median by more than
  the bound (per-layer metrics have no bound: losing 9 in 10 pairs by more
  than the base IQR);
* unchanged: none of the above.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median, quantiles

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(path: Path) -> dict[tuple[str, int], list[dict]]:
    runs: dict[tuple[str, int], list[dict]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            runs.setdefault((record["workload"], record["trace"]), []).append(record)
    return runs


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = quantiles(values, n=4)
    return q1, q3


def verdict(base: list[float], change: list[float], better: str,
            bound: float | None) -> str:
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(base, change))
    wins = sum(sign * (c - b) > 0 for b, c in pairs)
    losses = sum(sign * (c - b) < 0 for b, c in pairs)
    mb, mc = median(base), median(change)
    q1, q3 = _quartiles(base)
    iqr = q3 - q1
    if pairs and wins >= 0.9 * len(pairs) and abs(mc - mb) > iqr:
        return "improved"
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and abs(mc - mb) > iqr:
            return "regressed"
        return "unchanged"
    all_better = all(sign * (c - b) > 0 for c in change for b in base)
    if mb and iqr / abs(mb) > bound and not all_better:
        return "unresolved"
    if sign * (mc - mb) < -bound * abs(mb):
        return "regressed"
    return "unchanged"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    meta = {m["name"]: m for section in ("end_to_end", "per_layer") for m in spec[section]}
    base, change = (load_runs(Path(p)) for p in argv)
    print(f"{'workload':11s} {'trace':5s} {'metric':46s} {'unit':6s} {'n':>5s} "
          f"{'base median [q1, q3]':>34s} {'change median [q1, q3]':>34s}  verdict")
    for key in sorted(set(base) & set(change)):
        b_runs, c_runs = base[key], change[key]
        names = sorted(set(b_runs[0]["metrics"]) & set(c_runs[0]["metrics"]))
        for name in names:
            b = [r["metrics"][name]["value"] for r in b_runs]
            c = [r["metrics"][name]["value"] for r in c_runs]
            m = meta.get(name, {"better": "lower", "unit": "?"})
            cells = []
            for values in (b, c):
                q1, q3 = _quartiles(values)
                cells.append(f"{median(values):.5g} [{q1:.5g}, {q3:.5g}]")
            print(f"{key[0]:11s} {key[1]:<5d} {name:46s} {m['unit']:6s} "
                  f"{len(b):>2d}/{len(c):<2d} {cells[0]:>34s} {cells[1]:>34s}  "
                  f"{verdict(b, c, m['better'], m.get('bound'))}")
        failed = [sum(r["failed"] for r in runs) for runs in (b_runs, c_runs)]
        if failed[1] > failed[0]:
            print(f"{key[0]:11s} {key[1]:<5d} failed queries: base {failed[0]}, "
                  f"change {failed[1]}; a gain does not count")
    return 0


if __name__ == "__main__":
    sys.exit(main())
