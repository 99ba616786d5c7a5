"""Command-line front door.

Subcommands: build, train, eval, sweep, predict, gen-planted.
Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numeric failure.
Flags override values from an optional JSON config file; the effective
configuration is echoed into the output directory as config.json.
`CAPGRAPH_SEED` serves as the global seed fallback when --seed is absent.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import typing
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .errors import DataError, NumericError
from .features import load_matrix, save_matrix
from .graph import (
    Graph,
    build_from_corpus,
    load_assignment,
    load_corpus,
    load_graph,
    load_service_edges,
    load_services,
    mask_target,
    write_assignment,
    write_graph_files,
)
from .harness import (
    DEFAULT_OS_GRID,
    DEFAULT_RATIO_GRID,
    MethodSpec,
    MetricReport,
    PipelineConfig,
    RESULTS_HEADER,
    PlantedDatasetSpec,
    SweepCell,
    SweepSpec,
    generate_planted_dataset,
    results_rows,
    run_link,
    run_single,
    sweep,
    write_results_csv,
    write_summary_json,
)
from .metrics import auc_pr, auc_roc
from .models import (
    ModelParameters,
    check_fanout_scope,
    forward,
    load_checkpoint,
    predict_labels,
    save_checkpoint,
)
from .seng import write_audit_file

METRICS_HEADER = RESULTS_HEADER[:-1]  # no wall_ms: a run directory is the same on every rerun

_METHOD_FLAGS = {
    "plain": (False, False),
    "seng": (True, False),
    "fa": (False, True),
    "sf": (True, True),
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Configuration: the config dataclasses' defaults, JSON file, then flags.
# ---------------------------------------------------------------------------

# The pipeline settings that config.json holds and flags set, by section (a
# `PipelineConfig` field) and dataclass field: (flag, help[, default shown]).
# Each help ends in the field's default unless a text for it is given.
_PIPELINE_FLAGS: dict[str, dict[str, tuple[str, ...]]] = {
    "seng": {
        "oversampling_scale": ("--os", "SENG oversampling scale"),
        "ratio_threshold": ("--ratio-threshold", "skip SENG when the training imbalance ratio exceeds this"),
        "alpha_choices": ("--alpha-choices", "comma list of SENG bag sizes from {2,3,4}"),
    },
    "embedding": {
        "dim": ("--embed-dim", "paragraph-vector width"),
        "epochs": ("--embed-epochs", "paragraph-vector epochs"),
        "learning_rate": ("--embed-lr", "paragraph-vector learning rate"),
        "negatives": ("--negatives", "negative samples per word"),
    },
    "tsne": {
        "perplexity": ("--perplexity", "t-SNE perplexity", "min(30,(n-1)/3)"),
        "iterations": ("--tsne-iters", "t-SNE iterations"),
        "learning_rate": ("--tsne-lr", "t-SNE learning rate"),
    },
    "train": {
        "learning_rate": ("--lr", "classifier learning rate"),
        "max_epochs": ("--max-epochs", "maximum training epochs"),
        "patience": ("--patience", "early-stop patience on validation AUC-ROC"),
        "d_hidden": ("--hidden", "hidden width"),
        "threshold": ("--threshold", "classification threshold"),
        "fanout": ("--fanout", "neighbor sample cap (GraphSAGE node classification)", "full neighborhood"),
    },
}

_DEFAULT = PipelineConfig()
_SECTIONS = {f.name: type(f.default) for f in fields(PipelineConfig) if f.name in _PIPELINE_FLAGS}
_TYPES = {section: typing.get_type_hints(cls) for section, cls in _SECTIONS.items()}
_RATIOS = typing.get_type_hints(PipelineConfig)["ratios"]
DEFAULTS: dict[str, typing.Any] = {
    "seed": _DEFAULT.train.seed,
    "ratios": _DEFAULT.ratios,
    **{
        section: {name: getattr(getattr(_DEFAULT, section), name) for name in flags}
        for section, flags in _PIPELINE_FLAGS.items()
    },
}


def _cast(hint, value, key: str):
    """A JSON config value as the field type `hint`: an int field takes a
    JSON integer, a float field any number (never a boolean), a tuple field a
    list of these, and an optional field also null. Anything else is a
    ValueError naming `key`."""
    args = typing.get_args(hint)
    if type(None) in args:
        return None if value is None else _cast(args[0], value, key)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ValueError(f"{key} must be a list, got {json.dumps(value)}")
        return tuple(_cast(args[0], v, f"{key}[{i}]") for i, v in enumerate(value))
    if type(value) is not int and not (hint is float and type(value) is float):
        raise ValueError(f"{key} must be {'an integer' if hint is int else 'a number'}, got {json.dumps(value)}")
    return hint(value)


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma list of integers, got {text!r}") from None


def _add_pipeline_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", type=Path, help="JSON config file mirroring the pipeline settings")
    sub.add_argument("--seed", type=int, help=f"global seed (default: $CAPGRAPH_SEED or {DEFAULTS['seed']})")
    for section, flags in _PIPELINE_FLAGS.items():
        for name, (flag, text, *shown) in flags.items():
            hint, default = _TYPES[section][name], DEFAULTS[section][name]
            if typing.get_origin(hint) is tuple:
                kwargs, default = {"type": _int_list}, ",".join(map(str, default))
            else:  # int or float, or either or None
                kwargs = {"type": (typing.get_args(hint) or (hint,))[0]}
            sub.add_argument(flag, help=f"{text} (default: {shown[0] if shown else default})", **kwargs)


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def effective_config(args: argparse.Namespace) -> dict:
    config = json.loads(json.dumps(DEFAULTS))  # deep copy
    path = getattr(args, "config", None)
    if path is not None:
        try:
            file_cfg = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
            raise UsageError(f"cannot read config file {path}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise UsageError(f"config file {path} must hold a JSON object")
        config = _merge(config, file_cfg)
        for section, flags in _PIPELINE_FLAGS.items():  # other top-level keys are run metadata
            if not isinstance(config[section], dict):
                raise UsageError(f"bad configuration: section {section!r} in {path} is not a JSON object")
            unknown = ", ".join(f"{section}.{key}" for key in sorted(set(config[section]) - set(flags)))
            if unknown:
                raise UsageError(f"bad configuration: unknown key {unknown} in {path}")
    env_seed = os.environ.get("CAPGRAPH_SEED")
    if getattr(args, "seed", None) is not None:
        config["seed"] = args.seed
    elif env_seed is not None:
        try:
            config["seed"] = int(env_seed)
        except ValueError:
            raise UsageError(f"CAPGRAPH_SEED must be an integer, got {env_seed!r}") from None
    for section, flags in _PIPELINE_FLAGS.items():
        for name, (flag, *_) in flags.items():
            value = getattr(args, flag[2:].replace("-", "_"), None)  # argparse's dest
            if value is not None:
                config[section][name] = value
    return config


def pipeline_from_config(config: dict) -> PipelineConfig:
    try:
        seed = _cast(int, config["seed"], "seed")
        sections = {}
        for section, flags in _PIPELINE_FLAGS.items():
            values = {
                name: _cast(_TYPES[section][name], config[section][name], f"{section}.{name}") for name in flags
            }
            if "seed" in _TYPES[section]:
                values["seed"] = seed
            sections[section] = _SECTIONS[section](**values)
        ratios = _cast(_RATIOS, config["ratios"], "ratios")
        if len(ratios) != 3:
            raise UsageError("ratios must list three values")
        return PipelineConfig(ratios=ratios, **sections)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # OverflowError: float() of a huge integer
        raise UsageError(f"bad configuration: {exc}") from exc


def _method_spec(args: argparse.Namespace, pipeline: PipelineConfig) -> MethodSpec:
    """The method the flags name, checked against the pipeline before any work."""
    use_seng, use_fa = _METHOD_FLAGS[args.method]
    task = getattr(args, "task", "node")
    if task == "link" and use_seng:
        raise UsageError("--method seng/sf applies to node classification; link prediction supports plain/fa")
    check_fanout_scope(pipeline.train, args.encoder, task)
    return MethodSpec(use_seng=use_seng, use_fa=use_fa, encoder=args.encoder, task=task)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _check_out_dir(out_dir: Path) -> None:
    """Raise for an --out that cannot become a writable directory, before any
    run starts. Nothing is created: the directory is made once the runs return."""
    existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
    if not existing.is_dir():
        raise DataError(f"{existing}: not a directory")
    if not os.access(existing, os.W_OK | os.X_OK):
        raise DataError(f"{existing}: directory is not writable")


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def cmd_build(args: argparse.Namespace) -> int:
    if args.corpus is not None:
        if args.services is None:
            raise UsageError("--corpus requires --services")
        service_edges = [] if args.service_edges is None else load_service_edges(args.service_edges)
        graph = build_from_corpus(load_corpus(args.corpus), load_services(args.services), service_edges)
    elif args.nodes is not None and args.edges is not None:
        graph = load_graph(args.nodes, args.edges)
    else:
        raise UsageError("provide --corpus/--services or --nodes/--edges")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_graph_files(graph, out_dir / "nodes.tsv", out_dir / "edges.tsv")
    print(f"nodes\t{graph.num_nodes}")
    print(f"edges\t{graph.num_edges}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    if args.repeats < 1:
        raise DataError("--repeats must be >= 1")
    config = effective_config(args)
    pipeline = pipeline_from_config(config)
    method = _method_spec(args, pipeline)
    graph = load_graph(args.nodes, args.edges)
    task = mask_target(graph, args.target)
    seed = config["seed"]
    repeats = args.repeats
    out_dir = Path(args.out)
    _check_out_dir(out_dir)
    if method.task == "link":
        results = [run_link(task, method, pipeline, seed + r) for r in range(repeats)]
    else:
        artifacts = run_single(task, method, pipeline, seed)
        results = [artifacts.result]
        for r in range(1, repeats):
            results.append(run_single(task, method, pipeline, seed + r).result)
    report = MetricReport.from_repeats(results)

    # the directory is made once the runs have returned, so a numeric failure leaves none
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "config.json", {
        **config, "command": "train", "target": args.target, "method": args.method,
        "encoder": args.encoder, "task": getattr(args, "task", "node"), "repeats": repeats,
    })
    if method.task == "node":
        write_graph_files(artifacts.aug.graph, out_dir / "nodes.tsv", out_dir / "edges.tsv")
        save_matrix(artifacts.features.features, out_dir / "features.bin")
        if artifacts.features.f1 is not None:
            save_matrix(artifacts.features.f1, out_dir / "f1.bin")
            save_matrix(artifacts.features.f2, out_dir / "f2.bin")
        save_checkpoint(artifacts.params, out_dir / "checkpoint.bin")
        if artifacts.aug.num_synthetic:
            write_audit_file(artifacts.aug, out_dir / "seng_audit.tsv")
        write_assignment(out_dir / "assignment.tsv", artifacts.aug.split, artifacts.aug.labels)
        with (out_dir / "training_log.csv").open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "train_loss", "valid_auc"])
            for entry in artifacts.log:
                writer.writerow([entry.epoch, repr(entry.train_loss), repr(entry.valid_auc)])

    rows = results_rows(args.target, method, "-", [SweepCell("-", report)])
    write_results_csv(out_dir / "metrics.csv", rows, METRICS_HEADER)
    _write_json(out_dir / "report.json", {
        "dataset": args.target, "method": method.name,
        "auc_roc": report.auc_roc, "auc_pr": report.auc_pr, "repeats": report.repeats,
    })
    print(f"{method.name}\tauc_roc\t{report.auc_roc:.4f}\tauc_pr\t{report.auc_pr:.4f}")
    return 0


def _load_run_dir(run_dir: Path) -> tuple[Graph, np.ndarray, ModelParameters, dict, int]:
    """The graph, features, checkpoint, config and seed of a run directory,
    checked against each other; `assignment.tsv` is left to `eval`."""
    graph = load_graph(run_dir / "nodes.tsv", run_dir / "edges.tsv")
    features = load_matrix(run_dir / "features.bin")
    params = load_checkpoint(run_dir / "checkpoint.bin")
    try:
        config = json.loads((run_dir / "config.json").read_text(encoding="utf-8"))
        seed = _cast(int, config["seed"], "seed")
    except (KeyError, TypeError, ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise DataError(f"{run_dir / 'config.json'}: malformed run config ({exc})") from None
    if features.shape[0] != graph.num_nodes:
        raise DataError(
            f"features/graph mismatch: {features.shape[0]} rows vs {graph.num_nodes} nodes"
        )
    if params.input_dim != features.shape[1]:
        raise DataError(
            f"checkpoint/feature mismatch: model expects {params.input_dim} dims,"
            f" features carry {features.shape[1]}"
        )
    return graph, features, params, config, seed


def cmd_eval(args: argparse.Namespace) -> int:
    run_dir = Path(args.run_dir)
    graph, features, params, config, seed = _load_run_dir(run_dir)
    labels, split = load_assignment(run_dir / "assignment.tsv", graph.num_nodes, seed)
    probs, _ = forward(features, graph, params)
    test_ids = np.array(split.test_ids, dtype=np.int64)
    roc = auc_roc(probs[test_ids], labels[test_ids])
    pr = auc_pr(probs[test_ids], labels[test_ids])
    payload = {"auc_roc": roc, "auc_pr": pr, "test_nodes": int(test_ids.size)}
    _write_json(run_dir / "eval.json", payload)
    print(f"auc_roc\t{roc:.4f}\tauc_pr\t{pr:.4f}\ttest_nodes\t{test_ids.size}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    config = effective_config(args)
    pipeline = pipeline_from_config(config)
    method = _method_spec(args, pipeline)
    if args.axis == "os" and not method.use_seng:
        raise UsageError("OS sweep requires a SENG-enabled method (seng or sf)")
    if args.grid is not None:
        try:
            values = tuple(float(tok) for tok in args.grid.split(",") if tok)
        except ValueError:
            raise UsageError(f"bad grid {args.grid!r}") from None
        if not values:
            raise UsageError("sweep grid is empty")
    else:
        values = DEFAULT_OS_GRID if args.axis == "os" else DEFAULT_RATIO_GRID
    graph = load_graph(args.nodes, args.edges)
    task = mask_target(graph, args.target)
    spec = SweepSpec(axis=args.axis, values=values, repeats=args.repeats, base_seed=config["seed"])
    out_dir = Path(args.out)
    _check_out_dir(out_dir)
    cells = sweep(task, method, spec, pipeline)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "config.json", {
        **config, "command": "sweep", "target": args.target, "method": args.method,
        "encoder": args.encoder, "axis": args.axis,
        "grid": list(values), "repeats": args.repeats,
    })
    rows = results_rows(args.target, method, args.axis, cells)
    write_results_csv(out_dir / "results.csv", rows)
    write_summary_json(out_dir / "summary.json", args.target, method, args.axis, cells)
    for cell in cells:
        print(f"{args.axis}\t{cell.value}\tauc_roc\t{cell.report.auc_roc:.4f}\tauc_pr\t{cell.report.auc_pr:.4f}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    run_dir = Path(args.run_dir)
    graph, features, params, config, _ = _load_run_dir(run_dir)
    threshold = args.threshold
    if threshold is None:
        try:
            threshold = float(config["train"]["threshold"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise DataError(f"{run_dir / 'config.json'}: malformed run config ({exc!r})") from None
    node_id = graph.find_manufacturer(args.name)
    if node_id is None:
        raise DataError(f"unknown manufacturer {args.name!r}")
    probs, _ = forward(features, graph, params)
    label = int(predict_labels(probs, threshold)[node_id])
    print(f"{args.name}\t{probs[node_id]:.6f}\t{label}")
    return 0


def cmd_gen_planted(args: argparse.Namespace) -> int:
    seed = effective_config(args)["seed"]
    spec = PlantedDatasetSpec(
        n_manufacturers=args.manufacturers,
        n_services_per_category=args.services_per_category,
        n_clusters=args.clusters,
        capable_fraction=args.capable_fraction,
        signal=args.signal,
        noise=args.noise,
        seed=seed,
    )
    graph, target = generate_planted_dataset(spec)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_graph_files(graph, out_dir / "nodes.tsv", out_dir / "edges.tsv")
    meta = {**asdict(spec), "target": target, "nodes": graph.num_nodes, "edges": graph.num_edges}
    _write_json(out_dir / "meta.json", meta)
    print(f"target\t{target}")
    print(f"nodes\t{graph.num_nodes}")
    print(f"edges\t{graph.num_edges}")
    return 0


# ---------------------------------------------------------------------------
# Parser assembly and entry point.
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="capgraph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build canonical graph files from a corpus or node/edge files")
    p_build.add_argument("--corpus", type=Path, help="manufacturer corpus: name<TAB>document per line")
    p_build.add_argument("--services", type=Path, help="service vocabulary: name<TAB>category per line")
    p_build.add_argument("--service-edges", type=Path, help="service-service edges: name<TAB>name per line")
    p_build.add_argument("--nodes", type=Path, help="existing node file to canonicalize")
    p_build.add_argument("--edges", type=Path, help="existing edge file to canonicalize")
    p_build.add_argument("--out", type=Path, required=True, help="output directory")
    p_build.set_defaults(func=cmd_build)

    p_train = sub.add_parser("train", help="mask a target, train a classifier, write artifacts")
    p_train.add_argument("--nodes", type=Path, required=True, help="node file")
    p_train.add_argument("--edges", type=Path, required=True, help="edge file")
    p_train.add_argument("--target", required=True, help="target service name to mask and predict")
    p_train.add_argument("--method", choices=sorted(_METHOD_FLAGS), default="sf",
                         help="ablation: plain, seng, fa, or sf (default: sf)")
    p_train.add_argument("--encoder", choices=["graphsage", "gcn"], default="graphsage",
                         help="GNN encoder (default: graphsage)")
    p_train.add_argument("--task", choices=["node", "link"], default="node",
                         help="node classification or link prediction (default: node)")
    p_train.add_argument("--repeats", type=int, default=1, help="averaging repeats (default: 1)")
    p_train.add_argument("--out", type=Path, required=True, help="output directory")
    _add_pipeline_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="re-evaluate a saved training run directory")
    p_eval.add_argument("--run-dir", type=Path, required=True, help="directory written by train")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="grid sweep over the OS or imbalance-ratio axis")
    p_sweep.add_argument("--nodes", type=Path, required=True, help="node file")
    p_sweep.add_argument("--edges", type=Path, required=True, help="edge file")
    p_sweep.add_argument("--target", required=True, help="target service name")
    p_sweep.add_argument("--method", choices=sorted(_METHOD_FLAGS), default="sf",
                         help="ablation method (default: sf)")
    p_sweep.add_argument("--encoder", choices=["graphsage", "gcn"], default="graphsage",
                         help="GNN encoder (default: graphsage)")
    p_sweep.add_argument("--axis", choices=["os", "ratio"], required=True, help="sweep axis")
    p_sweep.add_argument("--grid", help="comma list of grid values "
                                        "(default: 0.2,0.4,0.6,0.8,1.0,1.2 for os; 0.1,0.2,0.4,0.5866 for ratio)")
    p_sweep.add_argument("--repeats", type=int, default=3, help="repeats per cell (default: 3)")
    p_sweep.add_argument("--out", type=Path, required=True, help="output directory")
    _add_pipeline_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep, task="node")

    p_pred = sub.add_parser("predict", help="score one manufacturer with a saved run")
    p_pred.add_argument("--run-dir", type=Path, required=True, help="directory written by train")
    p_pred.add_argument("--name", required=True, help="manufacturer name")
    p_pred.add_argument("--threshold", type=float, help="label threshold (default: from run config, 0.5)")
    p_pred.set_defaults(func=cmd_predict)

    p_gen = sub.add_parser("gen-planted", help="generate a planted benchmark dataset")
    p_gen.add_argument("--manufacturers", type=int, default=200, help="manufacturer count (default: 200)")
    p_gen.add_argument("--services-per-category", type=int, default=10,
                       help="services per category (default: 10)")
    p_gen.add_argument("--clusters", type=int, default=4, help="service cluster count (default: 4)")
    p_gen.add_argument("--capable-fraction", type=float, default=0.2,
                       help="fraction of capable manufacturers (default: 0.2)")
    p_gen.add_argument("--signal", type=float, default=0.9,
                       help="capable-to-cluster link probability (default: 0.9)")
    p_gen.add_argument("--noise", type=float, default=0.05, help="noise edge rate (default: 0.05)")
    p_gen.add_argument("--seed", type=int, help="generator seed (default: $CAPGRAPH_SEED or 0)")
    p_gen.add_argument("--out", type=Path, required=True, help="output directory")
    p_gen.set_defaults(func=cmd_gen_planted)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # a diverging run reports itself once, as a numeric failure (exit 3),
        # not first through numpy's overflow and invalid-value warnings
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:  # a missing or unreadable file too
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)


if __name__ == "__main__":
    sys.exit(main())
