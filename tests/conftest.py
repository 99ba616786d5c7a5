from __future__ import annotations

import numpy as np
import pytest

from capgraph.graph import Graph, ServiceCategory, manufacturer, service


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


def edge_set(graph: Graph) -> set[tuple[int, int]]:
    """The graph's edges as (u, v) pairs, u < v."""
    return set(map(tuple, graph.edge_array().tolist()))


@pytest.fixture
def mixed_graph() -> Graph:
    return small_mixed_graph()
