"""Span tracing of capgraph from outside the package.

`Tracer.installed` replaces each public function listed in `LAYER_CALLS`
where it is looked up (capgraph's modules import functions by name, so the
harness's `train_paragraph_vectors` is another binding than the features
module's) with a wrapper that records a span: name, start, end, parent span,
plus counts taken from the call's arguments or result. Spans stay in memory
and are written to one JSON file at the end; `layer_metrics` derives the
per-layer figures, self time included, from them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np


def _pv_visits(args, kwargs, result):
    paragraphs = args[0] if args else kwargs["paragraphs"]
    epochs = kwargs.get("epochs", args[2] if len(args) > 2 else 40)
    return {"visits": epochs * sum(1 for toks in paragraphs.values() if len(toks))}


def _tsne_iterations(args, kwargs, result):
    return {"iterations": kwargs.get("iterations", args[2] if len(args) > 2 else 500)}


def _node_epochs(args, kwargs, result):
    return {"epochs": len(result[1])}


def _link_epochs(args, kwargs, result):
    return {"epochs": result[1].epochs_run}


def _operator_bytes(args, kwargs, result):
    """nbytes of the p x p adjacency and operator arrays a forward cache holds."""
    held = {}
    for attr in ("adjacency", "agg", "head_agg", "s"):
        arr = getattr(result, attr, None)
        if isinstance(arr, np.ndarray) and arr.ndim == 2 and arr.shape[0] == arr.shape[1]:
            held[id(arr)] = arr.nbytes
    return {"operator_bytes": sum(held.values())}


def _synthetic(args, kwargs, result):
    return {"synthetic": result.num_synthetic}


# (module, attribute, span name, hook deriving counts from args and result).
# An attribute of the form "Class.method" patches the class.
LAYER_CALLS = [
    ("capgraph.harness", "build_neighbor_paragraphs", "features.paragraphs", None),
    ("capgraph.harness", "train_paragraph_vectors", "features.pv", _pv_visits),
    ("capgraph.harness", "reduce_to_plane", "features.tsne", _tsne_iterations),
    ("capgraph.features", "joint_affinities", "features.affinity", None),
    ("capgraph.harness", "train_node_classifier", "models.train", _node_epochs),
    ("capgraph.harness", "train_link_predictor", "models.train", _link_epochs),
    ("capgraph.models", "sage_forward", "models.forward", _operator_bytes),
    ("capgraph.models", "gcn_forward", "models.forward", _operator_bytes),
    ("capgraph.models", "encode", "models.forward", _operator_bytes),
    ("capgraph.models", "backward", "models.backward", None),
    ("capgraph.models", "encoder_backward", "models.backward", None),
    ("capgraph.models", "mean_aggregation_matrix", "models.operator", None),
    ("capgraph.models", "gcn_propagation_matrix", "models.operator", None),
    ("capgraph.models", "link_embedding_gradient", "models.link_grad", None),
    ("capgraph.models", "split_link_edges", "models.link_split", None),
    ("capgraph.cli", "load_graph", "graph.load", None),
    ("capgraph.graph", "Graph.__init__", "graph.build", None),
    ("capgraph.graph", "Graph.dense_adjacency", "graph.dense_adjacency", None),
    ("capgraph.graph", "mask_target", "graph.mask", None),
    ("capgraph.cli", "mask_target", "graph.mask", None),
    ("capgraph.cli", "write_graph_files", "cli.write", None),
    ("capgraph.cli", "save_matrix", "cli.write", None),
    ("capgraph.cli", "save_checkpoint", "cli.write", None),
    ("capgraph.cli", "write_audit_file", "cli.write", None),
    ("capgraph.cli", "load_matrix", "cli.read", None),
    ("capgraph.cli", "load_checkpoint", "cli.read", None),
    ("capgraph.harness", "oversample", "seng.oversample", _synthetic),
    ("capgraph.models", "auc_roc", "metrics.auc", None),
    ("capgraph.models", "auc_pr", "metrics.auc", None),
    ("capgraph.harness", "auc_roc", "metrics.auc", None),
    ("capgraph.harness", "auc_pr", "metrics.auc", None),
    ("capgraph.cli", "auc_roc", "metrics.auc", None),
    ("capgraph.cli", "auc_pr", "metrics.auc", None),
]


def _owner(module: str, attr: str):
    owner = importlib.import_module(module)
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, name


@contextlib.contextmanager
def patched(module: str, attr: str, wrap):
    """Replace `module.attr` by `wrap(original)` for the duration."""
    owner, name = _owner(module, attr)
    original = getattr(owner, name)
    setattr(owner, name, wrap(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


@contextlib.contextmanager
def capture(module: str, attr: str):
    """Record (args, kwargs, result) of every call to `module.attr`."""
    calls: list[tuple] = []

    def wrap(fn):
        @functools.wraps(fn)
        def recorder(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls.append((args, kwargs, result))
            return result
        return recorder

    with patched(module, attr, wrap):
        yield calls


class Tracer:
    """In-memory spans: [id, name, start, end, parent id, counts]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.missing: list[str] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = [len(self.spans), name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None, {}]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield record[5]
        finally:
            self._stack.pop()
            record[3] = time.perf_counter()

    def _wrapper(self, name: str, hook):
        def wrap(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                with self.span(name) as counts:
                    result = fn(*args, **kwargs)
                    if hook is not None:
                        counts.update(hook(args, kwargs, result))
                return result
            return traced
        return wrap

    @contextlib.contextmanager
    def installed(self):
        """Wrap every reachable entry of LAYER_CALLS. An entry the program no
        longer has is reported on stderr and its metric reads 0."""
        with contextlib.ExitStack() as stack:
            for module, attr, name, hook in LAYER_CALLS:
                try:
                    stack.enter_context(patched(module, attr, self._wrapper(name, hook)))
                except AttributeError:
                    self.missing.append(f"{module}.{attr}")
                    print(f"trace: {module}.{attr} not found; {name} misses it", file=sys.stderr)
            yield self

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "start", "end", "parent", "counts")
        payload = dict(extra, missing=self.missing, spans=[dict(zip(keys, s)) for s in self.spans])
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def _ancestors(spans: list[list], span: list):
    parent = span[4]
    while parent is not None:
        yield spans[parent]
        parent = spans[parent][4]


def layer_metrics(spans: list[list]) -> dict[str, tuple[float, str]]:
    """Per-layer totals, medians and counts from a list of spans."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[4] is not None:
            child_time[s[4]] += s[3] - s[2]
    by_name: dict[str, list[tuple[float, float, dict, list]]] = {}
    for s in spans:
        by_name.setdefault(s[1], []).append((s[3] - s[2], s[3] - s[2] - child_time[s[0]], s[5], s))

    def total(name, field=0):
        return sum(entry[field] for entry in by_name.get(name, ()))

    def median_ms(name, field=0):
        values = [entry[field] for entry in by_name.get(name, ())]
        return statistics.median(values) * 1e3 if values else 0.0

    def count(name, key):
        return sum(entry[2].get(key, 0) for entry in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    pv_s = total("features.pv")
    iterations = count("features.tsne", "iterations")
    read_s = total("cli.read") + sum(
        d for d, _, _, s in by_name.get("graph.load", ())
        if any(a[1] in ("cli.eval", "cli.predict") for a in _ancestors(spans, s))
    )
    bytes_held = [entry[2].get("operator_bytes", 0) for entry in by_name.get("models.forward", ())]
    return {
        "features.pv_s": (pv_s, "s"),
        "features.pv_visits_per_s": (count("features.pv", "visits") / pv_s if pv_s else 0.0, "1/s"),
        "features.tsne_s": (total("features.tsne"), "s"),
        "features.affinity_s": (total("features.affinity"), "s"),
        "features.tsne_iter_ms": (total("features.tsne", 1) / iterations * 1e3 if iterations else 0.0, "ms"),
        "features.paragraphs_s": (total("features.paragraphs"), "s"),
        "models.train_s": (total("models.train"), "s"),
        "models.epochs": (count("models.train", "epochs"), "count"),
        "models.forward_ms": (median_ms("models.forward", 1), "ms"),
        "models.backward_ms": (median_ms("models.backward"), "ms"),
        "models.operator_s": (total("models.operator"), "s"),
        "models.operator_calls": (calls("models.operator"), "count"),
        "models.operator_mb": (max(bytes_held, default=0) / 2**20, "MB"),
        "models.link_grad_ms": (median_ms("models.link_grad"), "ms"),
        "models.link_split_s": (total("models.link_split"), "s"),
        "graph.load_s": (total("graph.load"), "s"),
        "graph.build_s": (total("graph.build"), "s"),
        "graph.build_calls": (calls("graph.build"), "count"),
        "graph.dense_adjacency_s": (total("graph.dense_adjacency"), "s"),
        "graph.dense_adjacency_calls": (calls("graph.dense_adjacency"), "count"),
        "graph.mask_s": (total("graph.mask"), "s"),
        "cli.write_s": (total("cli.write"), "s"),
        "cli.read_s": (read_s, "s"),
        "seng.oversample_s": (total("seng.oversample"), "s"),
        "seng.synthetic_nodes": (count("seng.oversample", "synthetic"), "count"),
        "metrics.auc_ms": (total("metrics.auc") * 1e3, "ms"),
        "metrics.auc_calls": (calls("metrics.auc"), "count"),
    }
