"""Compare two sets of benchmark result files.

    python3 perfbench/compare.py BEFORE AFTER

BEFORE and AFTER are directories holding the `*.json` records that
`perfbench/run.py` writes to `perfbench/out/results/` (copy that directory
away after each set of runs). For every workload and metric the script
prints both medians with their quartiles, the change of the medians, and a
verdict against the bound in BENCHMARK.json:

- `regressed`: the after median is worse than the before median by more
  than the bound;
- `unresolved`: the before runs spread (interquartile range over median)
  wider than the bound, and not every after run beats every before run;
- `ok`: neither of the above.

Per-layer metrics have no bound and get no verdict. The share of failed
operations is printed per set and must not grow.
"""

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load(directory):
    """{(workload, trace): {metric: [values]}} plus failure counts."""
    sets = {}
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        result = record["result"]
        entry = sets.setdefault(
            (record["workload"], record["trace"]),
            {"metrics": {}, "attempted": 0, "failed": 0, "correct": True},
        )
        entry["attempted"] += result["attempted"]
        entry["failed"] += result["failed"]
        entry["correct"] &= result["correct"]
        for name, metric in result["metrics"].items():
            entry["metrics"].setdefault(name, []).append(metric["value"])
    return sets


def summary(values):
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return q1, med, q3


def verdict(before, after, bound, better):
    sign = 1.0 if better == "lower" else -1.0
    q1, med, q3 = summary(before)
    after_med = summary(after)[1]
    if med and sign * (after_med - med) / abs(med) > bound:
        return "regressed"
    spread = (q3 - q1) / abs(med) if med else 0.0
    all_better = all(sign * (a - b) < 0 for a in after for b in before)
    if spread > bound and not all_better:
        return "unresolved"
    return "ok"


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    before, after = load(argv[0]), load(argv[1])
    for key in sorted(set(before) & set(after)):
        b, a = before[key], after[key]
        print(f"== {key[0]} (trace {key[1]}): failed {b['failed']}/{b['attempted']} -> "
              f"{a['failed']}/{a['attempted']}, correct {b['correct']} -> {a['correct']}")
        for name in b["metrics"]:
            if name not in a["metrics"]:
                continue
            bq, aq = summary(b["metrics"][name]), summary(a["metrics"][name])
            change = (aq[1] - bq[1]) / abs(bq[1]) if bq[1] else float("nan")
            m = meta.get(name, {})
            line = (f"  {name:34s} {bq[1]:12.6g} [{bq[0]:.6g}, {bq[2]:.6g}]  ->  "
                    f"{aq[1]:12.6g} [{aq[0]:.6g}, {aq[2]:.6g}]  {change:+8.2%}")
            if "bound" in m:
                line += "  " + verdict(b["metrics"][name], a["metrics"][name],
                                       m["bound"], m["better"])
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
