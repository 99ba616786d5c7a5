from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from capgraph.graph import (
    Graph,
    ServiceCategory,
    load_graph,
    manufacturer,
    service,
    stratified_split,
    write_graph_files,
)
from capgraph.harness import PlantedDatasetSpec, planted_task
from capgraph.seng import SengConfig, oversample


def star_graph(n_manufacturers: int, hub_name: str = "hub", category=ServiceCategory.PROCESS) -> Graph:
    """n manufacturers all linked to one service hub."""
    nodes = [manufacturer(f"m{j}") for j in range(n_manufacturers)]
    hub = len(nodes)
    nodes.append(service(hub_name, category))
    return Graph(nodes, [(j, hub) for j in range(n_manufacturers)])


def small_mixed_graph() -> Graph:
    """4 manufacturers, 4 services (one per category), hand-wired."""
    nodes = [
        manufacturer("alpha"),
        manufacturer("beta"),
        manufacturer("gamma"),
        manufacturer("delta"),
        service("automotive", ServiceCategory.INDUSTRY),
        service("machining", ServiceCategory.PROCESS),
        service("copper", ServiceCategory.MATERIAL),
        service("iso 9001", ServiceCategory.CERTIFICATION),
    ]
    edges = [(0, 4), (0, 5), (1, 5), (1, 6), (2, 6), (2, 7), (3, 7), (4, 5)]
    return Graph(nodes, edges)


def random_bipartite_graph(
    rng: np.random.Generator,
    n_manufacturers: int,
    n_services: int,
    edge_prob: float = 0.3,
) -> Graph:
    nodes = [manufacturer(f"m{j}") for j in range(n_manufacturers)]
    categories = list(ServiceCategory)
    for s in range(n_services):
        nodes.append(service(f"svc {s}", categories[s % 4]))
    edges = []
    for m in range(n_manufacturers):
        for s in range(n_services):
            if rng.random() < edge_prob:
                edges.append((m, n_manufacturers + s))
    return Graph(nodes, edges)


def graph_layouts(tmp_path: Path) -> dict[str, Graph]:
    """A graph of each node layout: a planted graph, manufacturers first; one
    read from a node file that interleaves the two kinds; and a SENG graph,
    whose synthetic manufacturers follow the services."""
    task = planted_task(PlantedDatasetSpec(n_manufacturers=60, seed=1))
    rng = np.random.default_rng(2)
    kinds = rng.permutation([True] * 40 + [False] * 12)
    categories = list(ServiceCategory)
    nodes = [manufacturer(f"m{j}") if k else service(f"s{j}", categories[j % 4]) for j, k in enumerate(kinds)]
    edges = [(u, v) for u in range(len(kinds)) for v in range(u + 1, len(kinds))
             if not (kinds[u] and kinds[v]) and rng.random() < 0.25]
    write_graph_files(Graph(nodes, edges), tmp_path / "nodes.tsv", tmp_path / "edges.tsv")
    aug = oversample(task, stratified_split(task.labels, seed=3), SengConfig(seed=4))
    assert aug.num_synthetic > 0
    return {"planted": task.graph, "interleaved": load_graph(tmp_path / "nodes.tsv", tmp_path / "edges.tsv"),
            "seng": aug.graph}


def edge_set(graph: Graph) -> set[tuple[int, int]]:
    """The graph's edges as (u, v) pairs, u < v."""
    return set(map(tuple, graph.edge_array().tolist()))


@pytest.fixture
def mixed_graph() -> Graph:
    return small_mixed_graph()
