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
from collections.abc import Callable
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
    load_saved_graph,
    load_service_edges,
    load_services,
    mask_target,
    save_graph,
    write_assignment,
    write_graph_files,
)
from .harness import (
    DEFAULT_OS_GRID,
    DEFAULT_RATIO_GRID,
    METHODS,
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
    _KIND_BYTES,
    ModelParameters,
    TrainConfig,
    check_fanout_scope,
    check_threshold,
    forward,
    load_checkpoint,
    predict_labels,
    save_checkpoint,
)
from .seng import write_audit_file

METRICS_HEADER = RESULTS_HEADER[:-1]  # no wall_ms: a run directory is the same on every rerun


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Configuration: the config dataclasses' defaults, JSON file, then flags.
# ---------------------------------------------------------------------------

# Flags that set dataclass fields, by field: (flag, help[, default shown]).
# Each help ends in the field's default unless a text for it is given.

# `gen-planted`'s settings, the fields of `PlantedDatasetSpec` but its seed
_PLANTED_FLAGS: dict[str, tuple[str, ...]] = {
    "n_manufacturers": ("--manufacturers", "manufacturer count"),
    "n_services_per_category": ("--services-per-category", "services per category"),
    "n_clusters": ("--clusters", "service cluster count"),
    "capable_fraction": ("--capable-fraction", "fraction of capable manufacturers"),
    "signal": ("--signal", "capable-to-cluster link probability"),
    "noise": ("--noise", "noise edge rate"),
}

# The pipeline settings that config.json holds and flags set, by section (a
# `PipelineConfig` field)
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


def _add_flags(sub: argparse.ArgumentParser, cls: type, flags: dict[str, tuple[str, ...]]) -> None:
    """One flag per entry of `flags`, typed as that field of the dataclass
    `cls`. A flag not given parses as None: the field keeps its value."""
    hints, defaults = typing.get_type_hints(cls), cls()
    for name, (flag, text, *shown) in flags.items():
        hint, default = hints[name], getattr(defaults, name)
        if typing.get_origin(hint) is tuple:
            kwargs, default = {"type": _int_list}, ",".join(map(str, default))
        else:  # int or float, or either or None
            kwargs = {"type": (typing.get_args(hint) or (hint,))[0]}
        sub.add_argument(flag, help=f"{text} (default: {shown[0] if shown else default})", **kwargs)


def _given(args: argparse.Namespace, flags: dict[str, tuple[str, ...]]) -> dict[str, typing.Any]:
    """The fields among `flags` whose flag the command line gives, with its value."""
    dests = {name: flag[2:].replace("-", "_") for name, (flag, *_) in flags.items()}  # argparse's dests
    values = {name: getattr(args, dest, None) for name, dest in dests.items()}
    return {name: value for name, value in values.items() if value is not None}


def _add_seed(sub: argparse.ArgumentParser, text: str) -> None:
    sub.add_argument("--seed", type=int, help=f"{text} (default: $CAPGRAPH_SEED or {DEFAULTS['seed']})")


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
        config[section].update(_given(args, flags))
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
    use_seng, use_fa, _ = METHODS[args.method]
    task = getattr(args, "task", MethodSpec.task)  # sweep has no --task
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
        "encoder": args.encoder, "task": args.task, "repeats": repeats,
    })
    if method.task == "node":
        write_graph_files(artifacts.aug.graph, out_dir / "nodes.tsv", out_dir / "edges.tsv")
        save_graph(artifacts.aug.graph, out_dir / "graph.bin")
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
    checked against each other; `assignment.tsv` is left to `eval`. The
    graph is read from `graph.bin` alone: `nodes.tsv` and `edges.tsv` are
    its text copy."""
    graph = load_saved_graph(run_dir / "graph.bin")
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
    check_threshold(threshold)
    node_id = graph.find_manufacturer(args.name)
    if node_id is None:
        raise DataError(f"unknown manufacturer {args.name!r}")
    probs, _ = forward(features, graph, params, rows=np.array([node_id]))
    if np.isnan(probs[0]):  # finite inputs whose products overflowed
        raise NumericError(f"the score of {args.name!r} is NaN")
    print(f"{args.name}\t{probs[0]:.6f}\t{int(predict_labels(probs, threshold)[0])}")
    return 0


def cmd_gen_planted(args: argparse.Namespace) -> int:
    spec = PlantedDatasetSpec(seed=effective_config(args)["seed"], **_given(args, _PLANTED_FLAGS))
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


def _add_arguments(sub: argparse.ArgumentParser, command: str) -> None:
    """Add the arguments of subcommand `command` to its parser `sub`, in the
    order its `--help` lists them."""
    arg = sub.add_argument
    if command == "build":
        arg("--corpus", type=Path, help="manufacturer corpus: name<TAB>document per line")
        arg("--services", type=Path, help="service vocabulary: name<TAB>category per line")
        arg("--service-edges", type=Path, help="service-service edges: name<TAB>name per line")
        arg("--nodes", type=Path, help="existing node file to canonicalize")
        arg("--edges", type=Path, help="existing edge file to canonicalize")
    elif command in ("train", "sweep"):
        arg("--nodes", type=Path, required=True, help="node file")
        arg("--edges", type=Path, required=True, help="edge file")
        arg("--target", required=True, help="target service name to mask and predict")
        arg("--method", choices=sorted(METHODS), default="sf", help=f"ablation: {', '.join(METHODS)} (default: sf)")
        arg("--encoder", choices=list(_KIND_BYTES), default=MethodSpec.encoder,
            help=f"GNN encoder (default: {MethodSpec.encoder})")
    elif command in ("eval", "predict"):
        arg("--run-dir", type=Path, required=True, help="directory written by train")
    if command == "train":
        arg("--task", choices=["node", "link"], default=MethodSpec.task,
            help=f"node classification or link prediction (default: {MethodSpec.task})")
        arg("--repeats", type=int, default=1, help="averaging repeats (default: 1)")
    elif command == "sweep":
        grids = [",".join(map(str, grid)) for grid in (DEFAULT_OS_GRID, DEFAULT_RATIO_GRID)]
        arg("--axis", choices=["os", "ratio"], required=True, help="sweep axis")
        arg("--grid", help="comma list of grid values (default: {} for os; {} for ratio)".format(*grids))
        arg("--repeats", type=int, default=SweepSpec.repeats, help=f"repeats per cell (default: {SweepSpec.repeats})")
    elif command == "predict":
        arg("--name", required=True, help="manufacturer name")
        arg("--threshold", type=float, help=f"label threshold (default: from run config, {TrainConfig.threshold})")
    elif command == "gen-planted":
        _add_flags(sub, PlantedDatasetSpec, _PLANTED_FLAGS)
        _add_seed(sub, "generator seed")
    if command not in ("eval", "predict"):
        arg("--out", type=Path, required=True, help="output directory")
    if command in ("train", "sweep"):
        arg("--config", type=Path, help="JSON config file mirroring the pipeline settings")
        _add_seed(sub, "global seed")
        for section, flags in _PIPELINE_FLAGS.items():
            _add_flags(sub, _SECTIONS[section], flags)


# subcommand -> (help, handler)
_COMMANDS: dict[str, tuple[str, Callable[[argparse.Namespace], int]]] = {
    "build": ("build canonical graph files from a corpus or node/edge files", cmd_build),
    "train": ("mask a target, train a classifier, write artifacts", cmd_train),
    "eval": ("re-evaluate a saved training run directory", cmd_eval),
    "sweep": ("grid sweep over the OS or imbalance-ratio axis", cmd_sweep),
    "predict": ("score one manufacturer with a saved run", cmd_predict),
    "gen-planted": ("generate a planted benchmark dataset", cmd_gen_planted),
}


def _build_parser(command: str | None) -> _Parser:
    """The parser of every subcommand, each with its arguments only when it
    is `command`: a call parses the arguments of one subcommand alone."""
    parser = _Parser(prog="capgraph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, handler) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=handler)
        if name == command:
            _add_arguments(p, name)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(argv[0] if argv else None)
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
