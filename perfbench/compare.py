"""Summarise one benchmark result set, or compare two.

    python3 perfbench/compare.py BASE.jsonl            # spread of each metric
    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

A result set is the JSON-lines file that ``run.py --all --out FILE``
writes.  Runs of the two sets are paired by workload, trace flag and seed.
The metrics are the result's (end-to-end or per-layer), the workload's own
figures from the run record, and ``fail_share``.

With one set, each metric gets its median, quartiles and spread (the
distance between the quartiles as a share of the median), and is marked
steady when the spread is below a third of its bound.

With two sets, each metric gets each side's median and quartiles, the
ratio of the change's median to its base, the pairs the change won, and
a verdict:

* ``win``: the change wins at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than the base's quartile
  distance;
* ``regression``: the change's median is worse than the base's by more
  than the bound;
* ``unresolved``: either side's spread is wider than the bound, unless
  every run of the change reads better than every run of the base;
* ``no change``: otherwise.

Per-layer metrics have no bound: their verdict is ``win``, ``loss`` (the
win rule with the sides swapped) or ``no change``.  ``fail_share`` has
bound 0: any rise of the median is a regression.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                  .read_text(encoding="utf-8"))
KINDS = {m["name"]: (m["better"], m.get("bound")) for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def load(path: str) -> dict:
    """{(workload, trace): {metric: {seed: value}}} plus each metric's unit and rules."""
    runs: dict = {}
    rules: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            entry = json.loads(line)
            record, result = entry["record"], entry["result"]
            metrics = {name: (m["value"], m["unit"], *KINDS[name])
                       for name, m in result["metrics"].items()}
            if not record["trace"]:
                metrics["fail_share"] = (record["fail_share"], "share", "lower", 0.0)
                metrics.update({name: (m["value"], m["unit"], m["better"], m["bound"])
                                for name, m in record["detail"].items()})
            key = (record["workload"], record["trace"])
            for name, (value, *rule) in metrics.items():
                runs.setdefault(key, {}).setdefault(name, {})[record["seed"]] = value
                rules[name] = rule
    return {"runs": runs, "rules": rules}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(q2)


def verdict(base: dict, change: dict, better: str, bound: float | None) -> tuple[str, str]:
    """(verdict, pairs won) for one metric; base and change map seed -> value."""
    sign = 1 if better == "lower" else -1  # sign * (base - change) > 0: change better
    seeds = sorted(set(base) & set(change))
    wins = sum(1 for s in seeds if sign * (base[s] - change[s]) > 0)
    losses = sum(1 for s in seeds if sign * (base[s] - change[s]) < 0)
    a, b = list(base.values()), list(change.values())
    qa, qb = quartiles(a), quartiles(b)
    gain = sign * (qa[1] - qb[1])
    won = f"{wins}/{len(seeds)}"
    if bound is None:
        if seeds and wins >= 0.9 * len(seeds) and gain > qa[2] - qa[0]:
            return "win", won
        if seeds and losses >= 0.9 * len(seeds) and -gain > qb[2] - qb[0]:
            return "loss", won
        return "no change", won
    all_better = all(sign * (x - y) > 0 for x in a for y in b)
    if max(spread(a), spread(b)) > bound and not all_better:
        return "unresolved", won
    if seeds and wins >= 0.9 * len(seeds) and gain > qa[2] - qa[0]:
        return "win", won
    if -gain > bound * abs(qa[1]):
        return "regression", won
    return "no change", won


def fmt(v: float) -> str:
    return f"{v:.6g}"


def summarise(data: dict) -> int:
    unsteady = 0
    print(f"{'workload':15} {'trace':5} {'metric':45} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  steady")
    for (workload, trace), metrics in sorted(data["runs"].items()):
        for name, by_seed in metrics.items():
            unit, better, bound = data["rules"][name]
            values = list(by_seed.values())
            q1, q2, q3 = quartiles(values)
            s = spread(values)
            steady = "-" if bound is None else ("yes" if s == 0 or s < bound / 3 else "NO")
            unsteady += steady == "NO"
            print(f"{workload:15} {trace:5} {name:45} {len(values):3} {fmt(q2):>12} "
                  f"{fmt(q1):>12} {fmt(q3):>12} {s:8.4f} {'-' if bound is None else bound:>6}"
                  f"  {steady} {unit}")
    return 1 if unsteady else 0


def compare(base: dict, change: dict) -> int:
    regressions = 0
    print(f"{'workload':15} {'trace':5} {'metric':45} {'base median [q1, q3]':>38} "
          f"{'change median [q1, q3]':>38} {'ratio':>7} {'won':>6}  verdict")
    for key, metrics in sorted(base["runs"].items()):
        for name, a in metrics.items():
            b = change["runs"].get(key, {}).get(name)
            if not b:
                print(f"{key[0]:15} {key[1]:5} {name:45} missing from the change set")
                continue
            unit, better, bound = base["rules"][name]
            sides = [quartiles(list(a.values())), quartiles(list(b.values()))]
            base_q, change_q = (f"{fmt(q2)} [{fmt(q1)}, {fmt(q3)}]" for q1, q2, q3 in sides)
            ratio = sides[1][1] / sides[0][1] if sides[0][1] else float("nan")
            v, won = verdict(a, b, better, bound)
            regressions += v == "regression"
            print(f"{key[0]:15} {key[1]:5} {name:45} {base_q:>38} {change_q:>38} "
                  f"{ratio:7.3f} {won:>6}  {v} ({unit}, {better} is better)")
    return 1 if regressions else 0


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(path) for path in argv]
    return summarise(sets[0]) if len(sets) == 1 else compare(*sets)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
