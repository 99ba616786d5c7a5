#!/usr/bin/env python3
"""Self-test of the benchmark, in seconds.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, and requires zero
failed operations, passing checks and every metric named in BENCHMARK.json.
Then it damages one output of each kind and requires the matching check to
reject it: reversed scores, an AUC or a probability moved by 1e-6, a
feature or SENG invariant broken, a link split that leaks, a predict line
off by 1e-6 and a short training log.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
from pathlib import Path

import numpy as np

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(run.ROOT / "src"))

from workloads import TINY, WORKLOADS  # noqa: E402  (needs src on the path)
import reference as ref  # noqa: E402

failures: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        failures.append(what)


def rejects(workload, rounds, what: str, because: str) -> None:
    """The checks must fail, with a message that contains `because`."""
    problems = workload.check(rounds)
    hit = [p for p in problems if because in p]
    expect(bool(hit), f"{workload.name}: check rejects {what}" + (f" ({hit[0]})" if hit else f" {problems}"))


def run_tiny(name: str, work_dir: Path):
    (work_dir / name).mkdir(parents=True)

    def make_workload():
        return WORKLOADS[name](7, TINY, work_dir / name)

    workload, metrics, rounds = run.run_untraced(make_workload, seconds=0.01)
    problems = workload.check(rounds)
    expect(not problems and not any(r.failed for r in rounds),
           f"{name}: tiny run has no failed operation and passes its checks {problems}")
    names = {m["name"] for m in BENCHMARK["end_to_end"]}
    expect(set(metrics) == names, f"{name}: reports every end-to-end metric")
    _, traced, traced_rounds = run.run_traced(make_workload, work_dir / f"trace-{name}.json")
    names = {m["name"] for m in BENCHMARK["per_layer"]}
    expect(set(traced) == names, f"{name}: traced run reports every per-layer metric")
    expect(not workload.check(traced_rounds), f"{name}: traced run passes its checks")
    return workload, rounds


def damage_fa(workload, rounds) -> None:
    out = rounds[0].outputs

    def variant(**changes):
        bad = copy.deepcopy(rounds[0])
        bad.outputs.update(changes)
        return [bad]

    test = out["test_ids"]
    reversed_probs = out["probs"].copy()
    reversed_probs[test] = 1.0 - reversed_probs[test]
    rejects(workload, variant(probs=reversed_probs), "reversed test scores", "SF-GraphSAGE: AUC-ROC")
    rejects(workload, variant(auc_roc=out["auc_roc"] + 1e-6), "an AUC-ROC moved by 1e-6", "SF-GraphSAGE: AUC-ROC")
    rejects(workload, variant(auc_pr=out["auc_pr"] - 1e-6), "an AUC-PR moved by 1e-6", "SF-GraphSAGE: AUC-PR")
    moved = out["probs"].copy()
    moved[0] += 1e-6
    rejects(workload, variant(probs=moved), "one probability moved by 1e-6", "SF forward")
    queries = [(j, s + 1e-6) for j, s in out["queries"]]
    rejects(workload, variant(queries=queries), "a prediction query moved by 1e-6", "prediction queries")
    rejects(workload, variant(plain_probs=out["probs"], plain_auc_roc=out["auc_roc"], plain_auc_pr=out["auc_pr"]),
            "SF no better than plain", "is not at least plain")
    features = out["features"].copy()
    features[-1, 1] += 1.0  # the last node is a synthetic manufacturer
    rejects(workload, variant(features=features), "uncentred plane features", "plane columns have mean")
    features = out["features"].copy()
    service = out["kinds"].index("industry")
    features[service, 2] = 1e-6
    rejects(workload, variant(features=features), "a service row with a plane coordinate", "service row")
    seng = copy.deepcopy(out["seng"])
    node, alpha, seeds, attached = seng["records"][0]
    seng["records"][0] = (node, alpha, seeds, attached[:-1])
    rejects(workload, variant(seng=seng), "a synthetic node missing one attachment", "attachments, expected")
    seng = copy.deepcopy(out["seng"])
    seng["aug_split"][seng["records"][0][0]] = "test"
    rejects(workload, variant(seng=seng), "a synthetic node outside the training split", "not in the training split")


def damage_cli(workload, rounds, work_dir: Path) -> None:
    out = rounds[0].outputs
    bad_dir = work_dir / "damaged"
    shutil.copytree(out["run_dir"], bad_dir)
    bad = copy.deepcopy(rounds[0])
    bad.outputs["run_dir"] = bad_dir
    eval_json = bad_dir / "graphsage" / "eval.json"
    original = eval_json.read_text(encoding="utf-8")
    scores = json.loads(original)
    scores["auc_roc"] += 1e-6
    eval_json.write_text(json.dumps(scores), encoding="utf-8")
    rejects(workload, [bad], "an eval AUC-ROC moved by 1e-6", "graphsage eval: AUC-ROC")
    eval_json.write_text(original, encoding="utf-8")
    name, prob, label = out["predictions"][0].strip().split("\t")
    bad.outputs["predictions"] = [f"{name}\t{float(prob) + 1e-6:.6f}\t{label}\n"] + out["predictions"][1:]
    rejects(workload, [bad], "a predict probability moved by 1e-6", "reference")
    bad.outputs["predictions"] = [f"{name}\t{prob}\t{1 - int(label)}\n"] + out["predictions"][1:]
    rejects(workload, [bad], "a flipped predict label", ": label")
    bad.outputs["predictions"] = out["predictions"]
    log = bad_dir / "gcn" / "training_log.csv"
    log.write_text("".join(log.read_text(encoding="utf-8").splitlines(True)[:-1]), encoding="utf-8")
    rejects(workload, [bad], "a training log one epoch short", "training_log.csv has")


def damage_link(workload, rounds) -> None:
    out = rounds[0].outputs

    def variant(**changes):
        bad = copy.deepcopy(rounds[0])
        bad.outputs.update(changes)
        return [bad]

    rejects(workload, variant(auc_roc=out["auc_roc"] + 1e-6), "a link AUC-ROC moved by 1e-6", "link test: AUC-ROC")
    queries = [(m, s - 1e-6) for m, s in out["queries"]]
    rejects(workload, variant(queries=queries), "a link query score moved by 1e-6", "link queries")
    split = copy.deepcopy(out["split"])
    split["neg_test"][0], split["pos_train"][0] = out["split"]["pos_train"][0], out["split"]["neg_test"][0]
    rejects(workload, variant(split=split), "a negative that is an edge", "neg_test: holds an edge")
    rejects(workload, variant(split=split), "a positive that is a non-edge", "pos_train: holds a non-edge")
    split = copy.deepcopy(out["split"])
    split["neg_valid"] = split["neg_valid"][:-1]
    rejects(workload, variant(split=split), "negatives not 1:1 with positives", "not 1:1")
    m, t = (int(x) for x in out["split"]["pos_test"][0])
    rejects(workload, variant(message_edges=np.vstack([out["message_edges"], [[min(m, t), max(m, t)]]])),
            "a held-out positive left in the message graph", "message graph")
    rejects(workload, variant(auc_pr=out["auc_pr"] - 1e-6), "a link AUC-PR moved by 1e-6", "link test: AUC-PR")


def main() -> int:
    work_dir = run.HERE / "work" / "selftest"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        expect(set(run.WORKLOAD_NAMES) == set(WORKLOADS) == {w["name"] for w in BENCHMARK["workloads"]},
               "run.py, workloads.py and BENCHMARK.json name the same workloads")
        fa = run_tiny("fa-pipeline-1k", work_dir)
        damage_fa(*fa)
        gnn = run_tiny("gnn-cli-4k", work_dir)
        damage_cli(*gnn, work_dir)
        link = run_tiny("link-4k", work_dir)
        damage_link(*link)
        expect(not ref.check_metrics("x", [0.2, 0.2, 0.9], [0, 1, 1], 0.75, 0.75 + 1 / 12, 1e-12),
               "brute-force AUC-ROC counts ties as 1/2")
        expect(ref.brute_average_precision([0.9, 0.5, 0.5, 0.1], [1, 0, 1, 0]) == (1 + 2 / 3) / 2,
               "brute-force AP takes each tie group's precision at its end")
        expect(bool(ref.check_close("x", np.ones(3), np.ones(3) + 1e-6, 1e-9)), "check_close rejects 1e-6")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
