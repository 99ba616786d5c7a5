from __future__ import annotations

import argparse
import csv
import json
import os
import re
import shutil
import struct
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import capgraph
from capgraph.cli import main
from capgraph.features import EmbeddingConfig, TsneConfig
from capgraph.graph import load_graph
from capgraph.harness import (
    DEFAULT_OS_GRID,
    DEFAULT_RATIO_GRID,
    TARGET_SERVICE_NAME,
    MethodSpec,
    PlantedDatasetSpec,
    SweepSpec,
)
from capgraph.models import TrainConfig
from capgraph.seng import SengConfig

FAST_FLAGS = [
    "--embed-dim", "10", "--embed-epochs", "3", "--tsne-iters", "50",
    "--max-epochs", "20", "--patience", "8", "--hidden", "8",
]


def run_cli(*args: str, capsys=None) -> int:
    return main(list(args))


@pytest.fixture
def planted_dir(tmp_path: Path) -> Path:
    out = tmp_path / "data"
    code = main([
        "gen-planted", "--manufacturers", "80", "--services-per-category", "6",
        "--clusters", "3", "--capable-fraction", "0.25", "--signal", "1.0",
        "--noise", "0.0", "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    return out


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------


def _corpus_inputs(tmp_path: Path) -> tuple[Path, Path]:
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text(
        "acme\tWe offer CNC machining and anodizing\n"
        "bolt co\tfasteners and machining\n"
        "quiet llc\tconsulting only\n",
        encoding="utf-8",
    )
    services = tmp_path / "services.tsv"
    services.write_text(
        "machining\tprocess\nanodizing\tprocess\nfasteners\tmaterial\naerospace\tindustry\n",
        encoding="utf-8",
    )
    return corpus, services


def test_build_from_corpus(tmp_path, capsys):
    corpus, services = _corpus_inputs(tmp_path)
    out = tmp_path / "built"
    assert main(["build", "--corpus", str(corpus), "--services", str(services), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "nodes\t7" in printed
    assert (out / "nodes.tsv").exists() and (out / "edges.tsv").exists()


def test_build_rebuild_byte_identical(tmp_path):
    corpus, services = _corpus_inputs(tmp_path)
    out1, out2 = tmp_path / "b1", tmp_path / "b2"
    main(["build", "--corpus", str(corpus), "--services", str(services), "--out", str(out1)])
    main(["build", "--corpus", str(corpus), "--services", str(services), "--out", str(out2)])
    assert (out1 / "nodes.tsv").read_bytes() == (out2 / "nodes.tsv").read_bytes()
    assert (out1 / "edges.tsv").read_bytes() == (out2 / "edges.tsv").read_bytes()


def test_build_missing_inputs_usage_error(tmp_path, capsys):
    assert main(["build", "--out", str(tmp_path / "x")]) == 1
    assert "error" in capsys.readouterr().err


def _unreadable(path: Path, how: str) -> None:
    """Make `path` missing, a directory, or a file that is not UTF-8."""
    if how == "not-utf8":
        path.write_bytes(b"\xff" + path.read_bytes())
        return
    path.unlink()
    if how == "directory":
        path.mkdir()


@pytest.mark.parametrize("how", ["missing", "directory", "not-utf8"])
@pytest.mark.parametrize("name", ["corpus.tsv", "services.tsv", "service-edges.tsv"])
def test_build_unreadable_input_exit_2(tmp_path, capsys, name, how):
    corpus, services = _corpus_inputs(tmp_path)
    service_edges = tmp_path / "service-edges.tsv"
    service_edges.write_text("machining\tanodizing\n", encoding="utf-8")
    _unreadable(tmp_path / name, how)
    out = tmp_path / "built"
    assert main([
        "build", "--corpus", str(corpus), "--services", str(services),
        "--service-edges", str(service_edges), "--out", str(out),
    ]) == 2
    assert capsys.readouterr().err.startswith("data error:")
    assert not out.exists()


def test_build_data_error_exit_2(tmp_path, capsys):
    nodes = tmp_path / "n.tsv"
    nodes.write_text("0\tmanufacturer\t-\ta\n", encoding="utf-8")
    edges = tmp_path / "e.tsv"
    edges.write_text("0\t9\n", encoding="utf-8")
    code = main(["build", "--nodes", str(nodes), "--edges", str(edges), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "data error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gen-planted
# ---------------------------------------------------------------------------


def test_gen_planted_writes_meta(planted_dir, capsys):
    meta = json.loads((planted_dir / "meta.json").read_text())
    assert meta["target"] == "target capability"
    assert meta["nodes"] == 80 + 24 + 1
    assert (planted_dir / "nodes.tsv").exists()


def test_gen_planted_without_optional_flags_uses_the_spec_defaults(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("CAPGRAPH_SEED", raising=False)
    assert main(["gen-planted", "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "meta.json").read_text())
    graph = load_graph(tmp_path / "nodes.tsv", tmp_path / "edges.tsv")
    assert meta == {
        **asdict(PlantedDatasetSpec()), "target": TARGET_SERVICE_NAME,
        "nodes": graph.num_nodes, "edges": graph.num_edges,
    }


# ---------------------------------------------------------------------------
# train / eval / predict
# ---------------------------------------------------------------------------


def _train(planted_dir: Path, out: Path, *extra: str) -> int:
    return main([
        "train",
        "--nodes", str(planted_dir / "nodes.tsv"),
        "--edges", str(planted_dir / "edges.tsv"),
        "--target", "target capability",
        "--method", "sf",
        "--seed", "3",
        "--out", str(out),
        *FAST_FLAGS,
        *extra,
    ])


def test_train_writes_artifacts(planted_dir, tmp_path, capsys):
    out = tmp_path / "run"
    assert _train(planted_dir, out) == 0
    for name in (
        "config.json", "nodes.tsv", "edges.tsv", "graph.bin", "features.bin", "checkpoint.bin",
        "assignment.tsv", "training_log.csv", "metrics.csv", "report.json", "seng_audit.tsv",
        "f1.bin", "f2.bin",
    ):
        assert (out / name).exists(), name
    from capgraph.features import load_matrix

    f1, f2 = load_matrix(out / "f1.bin"), load_matrix(out / "f2.bin")
    assert f1.shape[0] == f2.shape[0]
    assert f2.shape[1] == 2
    printed = capsys.readouterr().out
    assert "SF-GraphSAGE" in printed
    with (out / "metrics.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["dataset"] == "target capability"
    assert "wall_ms" not in rows[0]
    report = json.loads((out / "report.json").read_text())
    assert 0.0 <= report["auc_roc"] <= 1.0


def test_train_deterministic_artifacts(planted_dir, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert _train(planted_dir, out1) == 0
    assert _train(planted_dir, out2) == 0
    for name in ("checkpoint.bin", "metrics.csv", "features.bin", "nodes.tsv", "edges.tsv", "graph.bin"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_train_seng_with_os_zero_matches_plain(planted_dir, tmp_path):
    out_plain, out_seng = tmp_path / "p", tmp_path / "s"
    assert _train(planted_dir, out_plain, "--method", "plain") == 0
    assert _train(planted_dir, out_seng, "--method", "seng", "--os", "0") == 0
    plain = json.loads((out_plain / "report.json").read_text())
    seng = json.loads((out_seng / "report.json").read_text())
    assert plain["auc_roc"] == seng["auc_roc"]
    assert plain["auc_pr"] == seng["auc_pr"]


def test_train_unknown_target_exit_2(planted_dir, tmp_path):
    code = main([
        "train", "--nodes", str(planted_dir / "nodes.tsv"), "--edges", str(planted_dir / "edges.tsv"),
        "--target", "nope", "--out", str(tmp_path / "x"), *FAST_FLAGS,
    ])
    assert code == 2


@pytest.mark.parametrize("how", ["missing", "directory", "not-utf8"])
def test_train_unreadable_node_file_exit_2(planted_dir, tmp_path, capsys, how):
    _unreadable(planted_dir / "nodes.tsv", how)
    assert _train(planted_dir, tmp_path / "run", "--method", "plain") == 2
    assert capsys.readouterr().err.startswith("data error:")


@pytest.mark.parametrize("name, what", [("nodes.tsv", "node file"), ("edges.tsv", "edge file")])
def test_train_not_utf8_error_names_the_file(planted_dir, tmp_path, capsys, name, what):
    _unreadable(planted_dir / name, "not-utf8")
    assert _train(planted_dir, tmp_path / "run", "--method", "plain") == 2
    assert capsys.readouterr().err.startswith(f"data error: {what} {planted_dir / name} is not UTF-8 text")
    assert not (tmp_path / "run").exists()


def test_gen_planted_negative_seed_exit_2(tmp_path, capsys):
    out = tmp_path / "data"
    assert main(["gen-planted", "--manufacturers", "20", "--seed", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "data error: seed must be >= 0\n"
    assert not out.exists()


@pytest.mark.parametrize("command, extra", [
    ("train", ["--method", "sf", "--encoder", "gcn", "--fanout", "2"]),  # refused before the features
    ("train", ["--target", "nope"]),
    ("train", ["--nodes", "missing.tsv"]),
    ("sweep", ["--nodes", "missing.tsv"]),
    ("train", ["--seed", "-1"]),
    ("train", ["--repeats", "0"]),
    ("train", ["--task", "link", "--method", "plain", "--repeats", "0"]),
    ("sweep", ["--seed", "-1"]),
])
def test_failed_run_writes_no_output_dir(planted_dir, tmp_path, capsys, command, extra):
    out = tmp_path / "out"
    sweep_flags = ["--method", "seng", "--axis", "os"] if command == "sweep" else []
    assert main([
        command, "--nodes", str(planted_dir / "nodes.tsv"), "--edges", str(planted_dir / "edges.tsv"),
        "--target", "target capability", "--out", str(out), *FAST_FLAGS, *sweep_flags, *extra,
    ]) == 2
    assert capsys.readouterr().err.startswith("data error:")
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--negatives", "-1"),
    ("--perplexity", "nan"),
    ("--tsne-iters", "-5"),
    ("--embed-epochs", "-2"),
])
def test_train_invalid_fa_setting_exit_2(planted_dir, tmp_path, capsys, flag, value):
    assert _train(planted_dir, tmp_path / "run", flag, value) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("flag, value", [
    ("--hidden", "0"),
    ("--os", "nan"),
    ("--os", "inf"),
    ("--max-epochs", "-1"),
    ("--max-epochs", "0"),
    ("--patience", "-3"),
    ("--threshold", "nan"),
    ("--threshold", "1.5"),
    ("--fanout", "0"),
])
def test_train_invalid_train_setting_exit_2(planted_dir, tmp_path, capsys, flag, value):
    assert _train(planted_dir, tmp_path / "run", "--method", "plain", flag, value) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert "Traceback" not in err


@pytest.mark.parametrize("extra", [  # fanout samples GraphSAGE node-classification neighborhoods only
    ("--encoder", "gcn", "--fanout", "2"),
    ("--task", "link", "--fanout", "2"),
])
def test_train_head_flag_without_graphsage_head_exit_2(planted_dir, tmp_path, capsys, extra):
    assert _train(planted_dir, tmp_path / "run", "--method", "plain", *extra) == 2
    assert "GraphSAGE node classification only" in capsys.readouterr().err


def test_train_bad_alpha_choices_exit_1(planted_dir, tmp_path, capsys):
    assert _train(planted_dir, tmp_path / "run", "--alpha-choices", "2,x") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--alpha-choices" in err


def test_gen_planted_bad_env_seed_exit_1(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CAPGRAPH_SEED", "abc")
    assert main(["gen-planted", "--manufacturers", "40", "--out", str(tmp_path / "data")]) == 1
    assert "CAPGRAPH_SEED must be an integer" in capsys.readouterr().err


def test_train_config_round_trip(planted_dir, tmp_path):
    # a run's config.json fed back as --config, with no pipeline flag, is
    # written again byte for byte
    first, second = tmp_path / "first", tmp_path / "second"
    assert _train(planted_dir, first, "--method", "plain", "--os", "0.5", "--fanout", "3") == 0
    assert main([
        "train", "--nodes", str(planted_dir / "nodes.tsv"), "--edges", str(planted_dir / "edges.tsv"),
        "--target", "target capability", "--method", "plain",
        "--config", str(first / "config.json"), "--out", str(second),
    ]) == 0
    assert (second / "config.json").read_bytes() == (first / "config.json").read_bytes()
    assert (second / "checkpoint.bin").read_bytes() == (first / "checkpoint.bin").read_bytes()


def test_train_run_dir_independent_of_blas_threads(tmp_path):
    # t-SNE makes no BLAS call, whose results change with its thread count;
    # at 150 manufacturers the BLAS-based t-SNE differed under 1 and 2 threads
    data = tmp_path / "data"
    assert main(["gen-planted", "--manufacturers", "150", "--seed", "5", "--out", str(data)]) == 0
    src = str(Path(capgraph.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = tmp_path / f"threads-{threads}"
        subprocess.run(
            [sys.executable, "-m", "capgraph.cli", "train",
             "--nodes", str(data / "nodes.tsv"), "--edges", str(data / "edges.tsv"),
             "--target", "target capability", "--method", "sf", "--seed", "11",
             "--max-epochs", "20", "--patience", "8", "--hidden", "8", "--out", str(out)],
            env=env, check=True, capture_output=True,
        )
        runs.append(out)
    names = sorted(p.name for p in runs[0].iterdir())
    assert names == sorted(p.name for p in runs[1].iterdir())
    for name in names:
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name


@pytest.mark.parametrize("task", ["node", "link"])
def test_train_diverged_model_exits_3(planted_dir, tmp_path, task):
    # the weights overflow to NaN; a NaN score is a numeric failure, where the
    # AUC's tie search once looped forever (the timeout keeps a hang out of the suite).
    # The failure is its one line of stderr, and it leaves no output directory.
    src = str(Path(capgraph.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "capgraph.cli", "train",
         "--nodes", str(planted_dir / "nodes.tsv"), "--edges", str(planted_dir / "edges.tsv"),
         "--target", "target capability", "--method", "plain", "--task", task,
         "--lr", "1e308", "--out", str(tmp_path / "run")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 3, done.stderr
    assert len(done.stderr.splitlines()) == 1, done.stderr
    assert done.stderr.startswith("numeric failure:") and "scores are NaN" in done.stderr
    assert not (tmp_path / "run").exists()


def test_train_link_method_seng_rejected(planted_dir, tmp_path, capsys):
    code = main([
        "train", "--nodes", str(planted_dir / "nodes.tsv"), "--edges", str(planted_dir / "edges.tsv"),
        "--target", "target capability", "--task", "link", "--method", "sf",
        "--out", str(tmp_path / "x"), *FAST_FLAGS,
    ])
    assert code == 1


def test_eval_reproduces_metrics(planted_dir, tmp_path, capsys):
    out = tmp_path / "run"
    assert _train(planted_dir, out) == 0
    report = json.loads((out / "report.json").read_text())
    assert main(["eval", "--run-dir", str(out)]) == 0
    printed = capsys.readouterr().out
    evald = json.loads((out / "eval.json").read_text())
    assert evald["auc_roc"] == pytest.approx(report["auc_roc"])
    assert "auc_roc" in printed


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("trained")
    data = root / "data"
    assert main([
        "gen-planted", "--manufacturers", "80", "--services-per-category", "6",
        "--clusters", "3", "--capable-fraction", "0.25", "--signal", "1.0",
        "--noise", "0.0", "--seed", "5", "--out", str(data),
    ]) == 0
    assert _train(data, root / "run") == 0
    return root / "run"


def _eval_damaged(trained_run: Path, tmp_path: Path, name: str, damage) -> int:
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    path = run / name
    path.write_bytes(damage(path.read_bytes()))
    return main(["eval", "--run-dir", str(run)])


def test_eval_truncated_checkpoint_header_exit_2(trained_run, tmp_path, capsys):
    assert _eval_damaged(trained_run, tmp_path, "checkpoint.bin", lambda b: b[:10]) == 2
    assert "truncated checkpoint header" in capsys.readouterr().err


def test_eval_truncated_features_header_exit_2(trained_run, tmp_path, capsys):
    assert _eval_damaged(trained_run, tmp_path, "features.bin", lambda b: b[:10]) == 2
    assert "truncated matrix header" in capsys.readouterr().err


def test_eval_non_integer_assignment_exit_2(trained_run, tmp_path, capsys):
    assert _eval_damaged(trained_run, tmp_path, "assignment.tsv", lambda b: b"x" + b) == 2
    assert "must be integers" in capsys.readouterr().err


def test_eval_assignment_label_not_binary_exit_2(trained_run, tmp_path, capsys):
    assert _eval_damaged(trained_run, tmp_path, "assignment.tsv", lambda b: b"0\ttrain\t7\n" + b) == 2
    assert "line 1: label must be 0 or 1, got '7'" in capsys.readouterr().err


@pytest.mark.parametrize("name, how", [
    ("assignment.tsv", "missing"),
    ("assignment.tsv", "directory"),
    ("assignment.tsv", "not-utf8"),
    ("checkpoint.bin", "missing"),
    ("checkpoint.bin", "directory"),
    ("graph.bin", "missing"),  # a run directory from a build that wrote only the text graph
    ("graph.bin", "directory"),
])
def test_eval_unreadable_run_file_exit_2(trained_run, tmp_path, capsys, name, how):
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    _unreadable(run / name, how)
    assert main(["eval", "--run-dir", str(run)]) == 2
    assert capsys.readouterr().err.startswith("data error:")


def test_eval_assignment_listing_a_node_twice_exit_2(trained_run, tmp_path, capsys):
    assert _eval_damaged(trained_run, tmp_path, "assignment.tsv", lambda b: b"0\ttest\t1\n" + b) == 2
    assert "assignment.tsv line 2: duplicate node id 0" in capsys.readouterr().err


def test_eval_out_of_range_assignment_exit_2(trained_run, tmp_path, capsys):
    assert _eval_damaged(trained_run, tmp_path, "assignment.tsv", lambda b: b"99999\ttrain\t1\n" + b) == 2
    assert "out of range" in capsys.readouterr().err


def test_eval_malformed_config_exit_2(trained_run, tmp_path, capsys):
    assert _eval_damaged(trained_run, tmp_path, "config.json", lambda b: b[: len(b) // 2]) == 2
    assert "malformed run config" in capsys.readouterr().err


def test_eval_config_nested_too_deep_exit_2(trained_run, tmp_path, capsys):
    assert _eval_damaged(trained_run, tmp_path, "config.json", lambda b: b"[" * 100_000) == 2
    assert "malformed run config" in capsys.readouterr().err


def test_eval_and_predict_nonzero_flags_byte_exit_2(trained_run, tmp_path, capsys):
    assert _eval_damaged(trained_run, tmp_path, "checkpoint.bin", lambda b: b[:5] + b"\x01" + b[6:]) == 2
    assert main(["predict", "--run-dir", str(tmp_path / "run"), "--name", "maker-00000"]) == 2
    assert capsys.readouterr().err.count("reserved flags byte is 1") == 2


_NAN, _INF = struct.pack("<d", float("nan")), struct.pack("<d", float("inf"))


@pytest.mark.parametrize("name, value, fault", [
    ("features.bin", _NAN, "matrix holds a NaN or infinite value"),
    ("features.bin", _INF, "matrix holds a NaN or infinite value"),
    ("checkpoint.bin", _INF, "weights hold a NaN or infinite value"),
], ids=["features-nan", "features-inf", "checkpoint-inf"])
def test_eval_and_predict_non_finite_run_file_exit_2(trained_run, tmp_path, capsys, name, value, fault):
    at = 16 if name == "features.bin" else 20  # the first value: after the header, and w1's shape in a checkpoint
    assert _eval_damaged(trained_run, tmp_path, name, lambda b: b[:at] + value + b[at + 8 :]) == 2
    assert main(["predict", "--run-dir", str(tmp_path / "run"), "--name", "maker-00000"]) == 2
    assert capsys.readouterr().err == f"data error: {tmp_path / 'run' / name}: {fault}\n" * 2


def test_predict_known_and_unknown(planted_dir, tmp_path, capsys):
    out = tmp_path / "run"
    assert _train(planted_dir, out) == 0
    capsys.readouterr()  # discard train output
    assert main(["predict", "--run-dir", str(out), "--name", "maker-00000"]) == 0
    line = capsys.readouterr().out.strip()
    name, prob, label = line.split("\t")
    assert name == "maker-00000"
    assert 0.0 <= float(prob) <= 1.0
    assert label in ("0", "1")
    assert main(["predict", "--run-dir", str(out), "--name", "ghost"]) == 2


@pytest.mark.parametrize("damage", ["non-integer", "missing", "directory", "not-utf8"])
def test_predict_reads_no_assignment(trained_run, tmp_path, capsys, damage):
    predict = ["predict", "--run-dir", str(tmp_path / "run"), "--name", "maker-00000"]
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    assert main(predict) == 0
    intact = capsys.readouterr().out
    if damage == "non-integer":
        (run / "assignment.tsv").write_bytes(b"x" + (run / "assignment.tsv").read_bytes())
    else:
        _unreadable(run / "assignment.tsv", damage)
    assert main(predict) == 0
    assert capsys.readouterr().out == intact


def test_predict_boundary_half_maps_to_zero(planted_dir, tmp_path, capsys):
    out = tmp_path / "run"
    assert _train(planted_dir, out) == 0
    # zero out the checkpoint weights: P is exactly 0.5 everywhere
    from capgraph.models import load_checkpoint, save_checkpoint

    params = load_checkpoint(out / "checkpoint.bin")
    for w in params.weights():
        w[:] = 0.0
    save_checkpoint(params, out / "checkpoint.bin")
    capsys.readouterr()  # discard train output
    assert main(["predict", "--run-dir", str(out), "--name", "maker-00001"]) == 0
    _, prob, label = capsys.readouterr().out.strip().split("\t")
    assert float(prob) == 0.5
    assert label == "0"


def test_predict_nan_score_from_finite_weights_exits_3(trained_run, tmp_path, capsys):
    from capgraph.models import load_checkpoint, save_checkpoint

    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    params = load_checkpoint(run / "checkpoint.bin")
    for w in params.weights():
        w[:] = 1e300  # finite, but the head adds infinite terms of both signs
    params.w3[::2] *= -1
    save_checkpoint(params, run / "checkpoint.bin")
    assert main(["predict", "--run-dir", str(run), "--name", "maker-00000"]) == 3
    assert capsys.readouterr().err == "numeric failure: the score of 'maker-00000' is NaN\n"
    assert main(["eval", "--run-dir", str(run)]) == 3


def test_predict_config_without_threshold_exit_2(trained_run, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    config = json.loads((run / "config.json").read_text())
    del config["train"]
    (run / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(["predict", "--run-dir", str(run), "--name", "maker-00000"]) == 2
    assert "malformed run config" in capsys.readouterr().err
    assert main(["predict", "--run-dir", str(run), "--name", "maker-00000", "--threshold", "0.5"]) == 0


def test_predict_threshold_too_large_for_a_float_exit_2(trained_run, tmp_path, capsys):
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    config = json.loads((run / "config.json").read_text())
    config["train"]["threshold"] = 10**400
    (run / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(["predict", "--run-dir", str(run), "--name", "maker-00000"]) == 2
    assert "malformed run config" in capsys.readouterr().err


def test_train_eval_predict_never_build_a_dense_adjacency(planted_dir, tmp_path, monkeypatch):
    from capgraph.graph import Graph

    def refuse(self):
        raise AssertionError("dense p x p adjacency built")

    monkeypatch.setattr(Graph, "dense_adjacency", refuse)
    for encoder in ("graphsage", "gcn"):
        out = tmp_path / encoder
        assert _train(planted_dir, out, "--method", "plain", "--encoder", encoder) == 0
        assert main(["eval", "--run-dir", str(out)]) == 0
        assert main(["predict", "--run-dir", str(out), "--name", "maker-00000"]) == 0
    assert _train(planted_dir, tmp_path / "link", "--method", "plain", "--task", "link") == 0


def test_predict_never_builds_the_node_objects_or_the_edge_array(planted_dir, tmp_path, monkeypatch):
    from capgraph.graph import Graph

    runs = []
    for method in ("plain", "sf"):  # sf: synthetic manufacturers follow the services, so I is split
        for encoder in ("graphsage", "gcn"):
            runs.append(tmp_path / f"{method}-{encoder}")
            assert _train(planted_dir, runs[-1], "--method", method, "--encoder", encoder) == 0

    def refuse(*_):
        raise AssertionError("predict reached Graph.nodes or Graph.edge_array")

    monkeypatch.setattr(Graph, "nodes", property(refuse))
    monkeypatch.setattr(Graph, "edge_array", refuse)
    for run in runs:
        assert main(["predict", "--run-dir", str(run), "--name", "maker-00000"]) == 0


def test_eval_and_predict_read_the_graph_from_graph_bin_alone(trained_run, tmp_path, monkeypatch, capsys):
    import capgraph.cli
    import capgraph.graph

    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    commands = [["eval", "--run-dir", str(run)], ["predict", "--run-dir", str(run), "--name", "maker-00000"]]
    assert [main(command) for command in commands] == [0, 0]
    intact = capsys.readouterr().out

    def refuse(*_):
        raise AssertionError("load_graph called")

    monkeypatch.setattr(capgraph.cli, "load_graph", refuse)
    monkeypatch.setattr(capgraph.graph, "load_graph", refuse)
    (run / "nodes.tsv").unlink()
    (run / "edges.tsv").unlink()
    assert [main(command) for command in commands] == [0, 0]
    assert capsys.readouterr().out == intact


@pytest.mark.parametrize("method", ["plain", "sf"])
@pytest.mark.parametrize("encoder", ["graphsage", "gcn"])
def test_predict_prints_the_full_forward_line_for_every_manufacturer(tmp_path, capsys, method, encoder):
    from capgraph.features import load_matrix
    from capgraph.models import forward, load_checkpoint

    assert main(["gen-planted", "--manufacturers", "60", "--seed", "1", "--out", str(tmp_path / "data")]) == 0
    run = tmp_path / "run"
    assert _train(tmp_path / "data", run, "--method", method, "--encoder", encoder) == 0
    graph = load_graph(run / "nodes.tsv", run / "edges.tsv")
    probs, _ = forward(load_matrix(run / "features.bin"), graph, load_checkpoint(run / "checkpoint.bin"))
    threshold = json.loads((run / "config.json").read_text())["train"]["threshold"]
    capsys.readouterr()
    for j in graph.manufacturer_ids():
        name = graph.names[j]
        assert main(["predict", "--run-dir", str(run), "--name", name]) == 0
        assert capsys.readouterr().out == f"{name}\t{probs[j]:.6f}\t{int(probs[j] > threshold)}\n"


@pytest.mark.parametrize("value", ["nan", "5", "inf", "-1"])
def test_predict_threshold_outside_the_unit_interval_exit_2(trained_run, tmp_path, capsys, value):
    message = "data error: classification threshold must be in [0, 1]\n"
    assert main(["predict", "--run-dir", str(trained_run), "--name", "maker-00000", "--threshold", value]) == 2
    assert capsys.readouterr().err == message
    run = tmp_path / "run"
    shutil.copytree(trained_run, run)
    config = json.loads((run / "config.json").read_text())
    config["train"]["threshold"] = float(value)  # written as NaN, 5.0, Infinity and -1.0
    (run / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(["predict", "--run-dir", str(run), "--name", "maker-00000"]) == 2
    assert capsys.readouterr().err == message


def test_config_file_and_flag_override(planted_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": {"max_epochs": 7}}), encoding="utf-8")
    out = tmp_path / "run"
    code = main([
        "train", "--nodes", str(planted_dir / "nodes.tsv"), "--edges", str(planted_dir / "edges.tsv"),
        "--target", "target capability", "--method", "plain", "--seed", "1",
        "--config", str(cfg), "--out", str(out),
        "--embed-dim", "8", "--embed-epochs", "2", "--tsne-iters", "40",
    ])
    assert code == 0
    effective = json.loads((out / "config.json").read_text())
    assert effective["train"]["max_epochs"] == 7  # from file
    assert effective["embedding"]["dim"] == 8  # flag override
    with (out / "training_log.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) <= 7


@pytest.mark.parametrize("section, message", [
    (5, "section 'train'"),
    ({"bogus": 1, "head_relu": True}, "unknown key train.bogus, train.head_relu"),
])
def test_config_bad_pipeline_section_exit_1(planted_dir, tmp_path, capsys, section, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": section}), encoding="utf-8")
    assert _train(planted_dir, tmp_path / "run", "--config", str(cfg), "--lr", "0.1") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad configuration") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("config, key", [
    ({"train": {"max_epochs": 3.9}}, "train.max_epochs must be an integer, got 3.9"),
    ({"train": {"max_epochs": "7"}}, 'train.max_epochs must be an integer, got "7"'),
    ({"seng": {"alpha_choices": "23"}}, 'seng.alpha_choices must be a list, got "23"'),
    ({"seed": True}, "seed must be an integer, got true"),
], ids=["fraction", "string", "string-for-list", "boolean-seed"])
def test_config_value_of_wrong_type_exit_1(planted_dir, tmp_path, capsys, config, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "run"
    assert main([
        "train", "--nodes", str(planted_dir / "nodes.tsv"), "--edges", str(planted_dir / "edges.tsv"),
        "--target", "target capability", "--method", "plain", "--config", str(cfg), "--out", str(out),
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: bad configuration") and key in err
    assert not out.exists()


def test_config_integer_too_large_for_a_float_exit_1(planted_dir, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": {"learning_rate": 10**400}}), encoding="utf-8")
    assert _train(planted_dir, tmp_path / "run", "--config", str(cfg)) == 1
    assert capsys.readouterr().err.startswith("error: bad configuration")


@pytest.mark.parametrize("content", [b"\xff{}", b"[" * 100_000], ids=["not-utf8", "nested-too-deep"])
def test_config_file_unreadable_exit_1(planted_dir, tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    assert _train(planted_dir, tmp_path / "run", "--config", str(cfg)) == 1
    assert capsys.readouterr().err.startswith("error: cannot read config file")


def test_env_seed_fallback(planted_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("CAPGRAPH_SEED", "12")
    out = tmp_path / "run"
    code = main([
        "train", "--nodes", str(planted_dir / "nodes.tsv"), "--edges", str(planted_dir / "edges.tsv"),
        "--target", "target capability", "--method", "plain", "--out", str(out), *FAST_FLAGS,
    ])
    assert code == 0
    assert json.loads((out / "config.json").read_text())["seed"] == 12


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_cli_grid(planted_dir, tmp_path):
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--nodes", str(planted_dir / "nodes.tsv"), "--edges", str(planted_dir / "edges.tsv"),
        "--target", "target capability", "--method", "seng", "--axis", "os",
        "--grid", "0.4,1.0", "--repeats", "3", "--seed", "2", "--out", str(out),
        *FAST_FLAGS,
    ])
    assert code == 0
    with (out / "results.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6  # 2 cells x 3 repeats
    assert {r["value"] for r in rows} == {"0.4", "1.0"}
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["cells"]) == 2


def test_sweep_diverged_model_exits_3_without_output_dir(planted_dir, tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main([
        "sweep", "--nodes", str(planted_dir / "nodes.tsv"), "--edges", str(planted_dir / "edges.tsv"),
        "--target", "target capability", "--method", "seng", "--axis", "os",
        "--grid", "1.0", "--repeats", "3", "--lr", "1e308", "--out", str(out), *FAST_FLAGS,
    ])
    assert code == 3
    assert capsys.readouterr().err.startswith("numeric failure:")
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "train-link", "sweep"])
@pytest.mark.parametrize("where", ["file", "under-a-file", "unwritable"])
def test_unusable_out_exits_2_before_any_run(planted_dir, tmp_path, capsys, monkeypatch, command, where):
    # the directory is made only after the runs, but an --out that cannot be
    # one is refused first, so no training time is lost to it
    import capgraph.cli as cli

    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    for name in ("run_single", "run_link", "sweep"):
        monkeypatch.setattr(cli, name, no_run)
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n", encoding="utf-8")
    out, message = {
        "file": (blocker, f"{blocker}: not a directory"),
        "under-a-file": (blocker / "run", f"{blocker}: not a directory"),
        "unwritable": (tmp_path / "new" / "run", f"{tmp_path}: directory is not writable"),
    }[where]
    if where == "unwritable":  # a permission bit would not stop a superuser
        monkeypatch.setattr(cli.os, "access", lambda path, mode: Path(path) != tmp_path)
    flags = {
        "train": ["train"],
        "train-link": ["train", "--task", "link", "--method", "plain"],
        "sweep": ["sweep", "--method", "seng", "--axis", "os", "--grid", "1.0"],
    }[command]
    code = main([
        *flags, "--nodes", str(planted_dir / "nodes.tsv"), "--edges", str(planted_dir / "edges.tsv"),
        "--target", "target capability", "--out", str(out), *FAST_FLAGS,
    ])
    assert code == 2
    assert capsys.readouterr().err == f"data error: {message}\n"
    assert blocker.read_text(encoding="utf-8") == "not a directory\n"
    assert not (tmp_path / "new").exists()


def test_sweep_invalid_pairing_exit_1(planted_dir, tmp_path, capsys):
    code = main([
        "sweep", "--nodes", str(planted_dir / "nodes.tsv"), "--edges", str(planted_dir / "edges.tsv"),
        "--target", "target capability", "--method", "fa", "--axis", "os",
        "--out", str(tmp_path / "x"), *FAST_FLAGS,
    ])
    assert code == 1


def test_sweep_empty_grid_exit_1(planted_dir, tmp_path):
    code = main([
        "sweep", "--nodes", str(planted_dir / "nodes.tsv"), "--edges", str(planted_dir / "edges.tsv"),
        "--target", "target capability", "--method", "seng", "--axis", "os",
        "--grid", "", "--out", str(tmp_path / "x"), *FAST_FLAGS,
    ])
    assert code == 1


# ---------------------------------------------------------------------------
# help and defaults
# ---------------------------------------------------------------------------


def _shown_defaults(capsys, command: str) -> dict[str, str]:
    """Each option of `capgraph <command> --help` that shows a default, with it."""
    assert main([command, "--help"]) == 0
    options = capsys.readouterr().out.split("\noptions:\n", 1)[1]
    shown = {}
    for entry in re.split(r"\n  (?=-)", options):
        words = " ".join(entry.split())
        if "(default: " in words:
            shown[words.split()[0]] = words.rsplit("(default: ", 1)[1][:-1]
    return shown


def test_help_lists_documented_defaults(capsys):
    code = main(["train", "--help"])
    assert code == 0
    text = capsys.readouterr().out
    assert "default: 0.01" in text  # learning rate
    assert "default: 415" in text  # max epochs
    assert "default: 1.0" in text  # oversampling scale
    assert "default: 0.7" in text  # SENG ratio threshold
    assert "default: 0.5" in text  # classification threshold
    # every default that train, sweep, gen-planted and predict show is the dataclass field or constant
    seng, embedding, tsne, train = SengConfig(), EmbeddingConfig(), TsneConfig(), TrainConfig()
    assert tsne.perplexity is None and train.fanout is None  # shown as what None stands for
    seed = f"$CAPGRAPH_SEED or {train.seed}"
    pipeline = {
        "--seed": seed,
        "--os": seng.oversampling_scale,
        "--ratio-threshold": seng.ratio_threshold,
        "--alpha-choices": ",".join(map(str, seng.alpha_choices)),
        "--embed-dim": embedding.dim,
        "--embed-epochs": embedding.epochs,
        "--embed-lr": embedding.learning_rate,
        "--negatives": embedding.negatives,
        "--perplexity": "min(30,(n-1)/3)",
        "--tsne-iters": tsne.iterations,
        "--tsne-lr": tsne.learning_rate,
        "--lr": train.learning_rate,
        "--max-epochs": train.max_epochs,
        "--patience": train.patience,
        "--hidden": train.d_hidden,
        "--threshold": train.threshold,
        "--fanout": "full neighborhood",
        "--method": "sf",
        "--encoder": MethodSpec().encoder,
    }
    grids = [",".join(map(str, grid)) for grid in (DEFAULT_OS_GRID, DEFAULT_RATIO_GRID)]
    spec = PlantedDatasetSpec()
    expected = {
        "train": {**pipeline, "--task": MethodSpec().task, "--repeats": 1},
        "sweep": {**pipeline, "--repeats": SweepSpec.repeats, "--grid": f"{grids[0]} for os; {grids[1]} for ratio"},
        "gen-planted": {
            "--manufacturers": spec.n_manufacturers,
            "--services-per-category": spec.n_services_per_category,
            "--clusters": spec.n_clusters,
            "--capable-fraction": spec.capable_fraction,
            "--signal": spec.signal,
            "--noise": spec.noise,
            "--seed": seed,
        },
        "predict": {"--threshold": f"from run config, {train.threshold}"},
    }
    for command, defaults in expected.items():
        assert _shown_defaults(capsys, command) == {flag: str(value) for flag, value in defaults.items()}, command


def test_a_call_adds_the_arguments_of_its_subcommand_alone(trained_run, monkeypatch, capsys):
    calls = []
    add_argument = argparse.ArgumentParser.add_argument

    def spy(parser, *names, **kwargs):
        calls.append((parser.prog, names[0]))
        return add_argument(parser, *names, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", spy)
    assert main(["predict", "--run-dir", str(trained_run), "--name", "maker-00000"]) == 0
    assert {prog for prog, name in calls if name != "-h"} == {"capgraph predict"}
    # the top-level help still lists every subcommand
    assert main(["--help"]) == 0
    assert "{build,train,eval,sweep,predict,gen-planted}" in capsys.readouterr().out


def test_unknown_flag_exit_1(capsys):
    assert main(["train", "--bogus"]) == 1
