"""Compare two result sets written by run.py.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the `.perfbench_out/*.json` records of one commit.  For
every (metric, workload) pair the verdict is:

- improved: the new median is better by more than the base's quartile
  spread and the new run wins at least nine tenths of the same-seed pairs
  (or, where the spread is wider than the bound, every new run beats every
  base run);
- worse: the new median is worse than the base median by more than the
  bound;
- unresolved: the base runs spread wider than the bound;
- within bound: otherwise.

End-to-end metrics use their bounds from BENCHMARK.json; per-layer metrics
have none there and are judged against 10%.  Every ratio is printed with
its base.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PER_LAYER_BOUND = 0.10


def load(directory: Path) -> dict:
    """(trace, workload, metric) -> {seed: value}."""
    out = {}
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text())
        for name, metric in rec["result"]["metrics"].items():
            out.setdefault((rec["trace"], rec["workload"], name), {})[rec["seed"]] = metric["value"]
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(base: dict, new: dict, bound: float, better: str) -> tuple[str, float]:
    sign = 1.0 if better == "lower" else -1.0
    b, n = list(base.values()), list(new.values())
    mb, mn = statistics.median(b), statistics.median(n)
    ratio = mn / mb if mb else float("inf")
    q1, q3 = quartiles(b)
    spread = (q3 - q1) / abs(mb) if mb else float("inf")
    gain = sign * (mb - mn)        # positive when the new side is better
    all_better = all(sign * (x - y) < 0 for x in n for y in b)
    if spread > bound:
        return ("improved" if all_better else "unresolved"), ratio
    if -gain > bound * abs(mb):
        return "worse", ratio
    pairs = [(base[s], new[s]) for s in base.keys() & new.keys()]
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    if gain > q3 - q1 and pairs and wins >= 0.9 * len(pairs):
        return "improved", ratio
    return "within bound", ratio


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Compare two perfbench result sets.")
    ap.add_argument("base", type=Path)
    ap.add_argument("new", type=Path)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: (0, m["bound"], m["better"]) for m in spec["end_to_end"]}
    metrics.update({m["name"]: (1, PER_LAYER_BOUND, m["better"]) for m in spec["per_layer"]})
    base, new = load(args.base), load(args.new)
    if not base or not new:
        print("compare: no result records found", file=sys.stderr)
        return 2
    counts = {}
    print(f"{'workload':<13} {'metric':<44} {'base median (n)':>20} {'new median (n)':>20} "
          f"{'new/base':>9}  verdict")
    for (trace, workload, name) in sorted(base.keys() & new.keys()):
        kind, bound, better = metrics.get(name, (trace, PER_LAYER_BOUND, "lower"))
        b, n = base[(trace, workload, name)], new[(trace, workload, name)]
        status, ratio = verdict(b, n, bound, better)
        counts[status] = counts.get(status, 0) + 1
        mb, mn = statistics.median(b.values()), statistics.median(n.values())
        print(f"{workload:<13} {name:<44} {mb:>14.6g} ({len(b):>3}) {mn:>14.6g} ({len(n):>3}) "
              f"{ratio:>9.4f}  {status}{'' if kind == 0 else ' (per-layer)'}")
    print("summary: " + ", ".join(f"{k} {v}" for k, v in sorted(counts.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
