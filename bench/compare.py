"""Compare two sets of benchmark runs, one row per workload and metric.

    python3 bench/compare.py BASE.jsonl NEW.jsonl

Each file holds the run records that `bench/run.py --out FILE` appends.
Runs are paired in file order within each workload; run the two sides
alternately, at least ten pairs. Each row gives both sides' median and
quartiles and a verdict:

- improved: the new side wins at least nine tenths of the pairs (ties
  count for neither) and the medians differ, in its favour, by more than
  the base's own spread (the distance between its quartiles);
- unresolved: the base's spread, as a share of its median, is wider than
  the metric's bound, and not every new run reads better than every base
  run; per-layer metrics, which have no bound, are unresolved when
  neither side wins clearly;
- worse: the new median is worse than the base median by more than the
  bound (per-layer: the base wins as "improved" would require);
- unchanged: otherwise.

Seeds whose output digest differs between or within the files are
reported as behaviour changes. The script only reports; it exits 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base: list[float], new: list[float], lower_is_better: bool, bound: float | None) -> str:
    def better(x, y):  # x reads better than y
        return x < y if lower_is_better else x > y

    if set(base) == set(new) and len(set(base)) == 1:
        return "unchanged"
    pairs = list(zip(base, new))
    wins = sum(better(n, b) for b, n in pairs)
    losses = sum(better(b, n) for b, n in pairs)
    b1, bmed, b3 = quartiles(base)
    _, nmed, _ = quartiles(new)
    beyond_spread = abs(nmed - bmed) > b3 - b1
    if wins >= 0.9 * len(pairs) and beyond_spread and better(nmed, bmed):
        return "improved"
    if bound is None:
        return "worse" if losses >= 0.9 * len(pairs) and beyond_spread and better(bmed, nmed) else "unresolved"
    spread = (b3 - b1) / abs(bmed) if bmed else float("inf")
    if spread > bound and not all(better(n, b) for b in base for n in new):
        return "unresolved"
    worse_by = (nmed - bmed if lower_is_better else bmed - nmed) / abs(bmed) if bmed else 0.0
    return "worse" if worse_by > bound else "unchanged"


def digests(records: list[dict]) -> dict:
    out: dict = {}
    for r in records:
        out.setdefault((r["workload"], r["seed"]), set()).add(r["digest"])
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 64
    base, new = load(argv[0]), load(argv[1])
    spec = json.loads(BENCHMARK.read_text())
    metrics = {m["name"]: (m["better"] == "lower", m.get("bound")) for m in spec["end_to_end"] + spec["per_layer"]}

    print(f"{'workload':<9} {'metric':<38} {'base median [q1, q3] n':>34} {'new median [q1, q3] n':>34}  verdict")
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        for name, (lower, bound) in metrics.items():
            b = [r["metrics"][name]["value"] for r in base if r["workload"] == workload and name in r["metrics"]]
            n = [r["metrics"][name]["value"] for r in new if r["workload"] == workload and name in r["metrics"]]
            if not b or not n:
                continue
            cells = []
            for values in (b, n):
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}")
            print(f"{workload:<9} {name:<38} {cells[0]:>34} {cells[1]:>34}  {verdict(b, n, lower, bound)}")

    base_d, new_d = digests(base), digests(new)
    for key in sorted(base_d.keys() | new_d.keys()):
        seen = base_d.get(key, set()) | new_d.get(key, set())
        if len(seen) > 1:
            print(f"BEHAVIOUR CHANGE: workload {key[0]} seed {key[1]} has output digests {sorted(seen)}")
    same = sum(1 for k in base_d.keys() & new_d.keys() if base_d[k] == new_d[k] and len(base_d[k]) == 1)
    print(f"output digests: {same} workload/seed pairs identical in both files")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
