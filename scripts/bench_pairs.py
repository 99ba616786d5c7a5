#!/usr/bin/env python3
"""Paired benchmark runs of two source trees, and the rule a speed claim must meet.

    python3 scripts/bench_pairs.py --parent ../parent --change . --seeds 1-10 \
        --workload gnn-cli-4k --out pairs.jsonl
    python3 scripts/bench_pairs.py --summarize pairs.jsonl

Each tree is a checkout with its own `perfbench/run.py`. For every seed and
workload the script runs both trees' benchmark once, one after the other:
the parent first on even pairs, the change first on odd ones. Each run
appends one JSON line to `--out`: {"set", "workload", "side", "seed",
"pair", "result"}, the result being the benchmark's own last line.

The summary applies the three rules that decide whether a change lands.
Per workload and end-to-end metric it gives each side's median and
quartiles over the pairs, and the number of pairs the change won (ties
count for neither), then:
  - the gain rule: the change won at least nine in ten pairs, at least ten
    were run, and the medians lie further apart than the parent's
    interquartile range;
  - the bound rule: the change's median is no worse than the parent's by
    more than the metric's bound, a fraction of the parent's median.
Per workload it then gives each side's share of failed operations (failed
of attempted, summed over the pairs); the failure rule holds when the
change's share is no larger than the parent's. Which way is better, and
each bound, come from BENCHMARK.json. Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """'1-3,7' -> [1, 2, 3, 7]."""
    seeds = []
    for part in filter(None, text.split(",")):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in `tree`; its result line, or a failure record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}


def run_pairs(trees: dict[str, Path], workloads: list[str], seeds: list[int], seconds: float,
              label: str, out: Path) -> None:
    with out.open("a", encoding="utf-8") as fh:
        for pair, seed in enumerate(seeds):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                for side in order:
                    result = run_once(trees[side], workload, seed, seconds)
                    record = {"set": label, "workload": workload, "side": side, "seed": seed, "pair": pair,
                              "result": result}
                    fh.write(json.dumps(record) + "\n")
                    fh.flush()
                    value = result["metrics"].get("predict_ms", {}).get("value")
                    print(f"pair {pair} seed {seed} {workload} {side}: correct={result['correct']} "
                          f"predict_ms={value}", file=sys.stderr)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(records: list[dict], better: dict[str, str], bounds: dict[str, float]) -> list[str]:
    """Per set of records and workload, one line per metric, in the order
    `better` names them, then one line on the failed operations."""
    runs: dict[tuple[str, str], dict[str, dict[int, dict]]] = {}  # (set, workload) -> side -> pair -> result
    for r in filter(lambda r: "pair" in r, records):  # records made without pairing carry no pair
        runs.setdefault((r["set"], r["workload"]), {}).setdefault(r["side"], {})[r["pair"]] = r["result"]
    lines = []
    for (label, workload), sides in runs.items():
        parent, change = sides.get("parent", {}), sides.get("change", {})
        pairs = sorted(set(parent) & set(change))
        bad = [p for p in pairs if not (parent[p]["correct"] and change[p]["correct"])]
        lines.append(f"{label} {workload}: {len(pairs)} pairs, {len(bad)} with an incorrect run")
        for metric, direction in better.items():
            both = [p for p in pairs if metric in parent[p]["metrics"] and metric in change[p]["metrics"]]
            if not both:
                continue
            a = [parent[p]["metrics"][metric]["value"] for p in both]
            b = [change[p]["metrics"][metric]["value"] for p in both]
            sign = 1 if direction == "higher" else -1
            won = sum(sign * (y - x) > 0 for x, y in zip(a, b))
            (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
            holds = len(both) >= 10 and won >= 0.9 * len(both) and abs(bm - am) > a3 - a1
            within = -sign * (bm - am) <= bounds[metric] * abs(am)
            change_pct = (bm - am) / am * 100 if am else float("nan")
            lines.append(
                f"  {metric:12s} parent {am:.6g} [{a1:.6g}, {a3:.6g}]  change {bm:.6g} [{b1:.6g}, {b3:.6g}]"
                f"  {change_pct:+.1f}%  won {won}/{len(both)}  gain rule {'holds' if holds else 'does not hold'}"
                f"  {'within' if within else 'worse than'} its {bounds[metric]:.0%} bound")
        shares = {}
        for side, results in (("parent", parent), ("change", change)):
            failed, attempted = (sum(results[p][key] for p in pairs) for key in ("failed", "attempted"))
            shares[side] = failed / attempted if attempted else 0.0
            lines.append(f"  failed ops   {side} {failed} of {attempted} ({shares[side]:.2%})")
        rule = "holds" if shares["change"] <= shares["parent"] else "does not hold: more operations failed"
        lines[-1] += f"  failure rule {rule}"
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="source tree of the parent commit")
    parser.add_argument("--change", type=Path, help="source tree of the change")
    parser.add_argument("--workload", action="append", help="workload to run (repeatable)")
    parser.add_argument("--seeds", type=parse_seeds, help="seeds, one pair each: e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float, help="run length (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--set", dest="label", default="final", help="label of the new records (default: final)")
    parser.add_argument("--out", type=Path, help="JSON-lines file the records are appended to")
    parser.add_argument("--summarize", type=Path, help="summarize this records file instead of running")
    args = parser.parse_args(argv)
    benchmark = json.loads(((args.change or Path(".")) / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    path = args.summarize
    if path is None:
        if not (args.parent and args.change and args.workload and args.seeds and args.out):
            parser.error("running pairs needs --parent, --change, --workload, --seeds and --out")
        seconds = benchmark["run_seconds"] if args.seconds is None else args.seconds
        trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
        run_pairs(trees, args.workload, args.seeds, seconds, args.label, args.out)
        path = args.out
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
    print("\n".join(summarize(records, better, bounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
