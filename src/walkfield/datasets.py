"""Bundled fixtures: the Columbus crime data and a synthetic stream network.

Columbus: 49 neighborhoods (1980 residential burglaries and vehicle thefts
per thousand households, average home values in thousands of dollars) with
the classic first-order contiguity adjacency, vendored as CSV from the
public dataset distributed with the R spatial packages.  The adjacency is
symmetric and every undirected pair is stored once in the edge table.
"""

from __future__ import annotations

from importlib import resources

from .graph import Edge, EdgeCovariates, SpatialGraph
from .io import load_graph, read_data_table


def columbus_fixture():
    """The Columbus graph plus (crime, home_values) response vectors.

    Returns (SpatialGraph, crime, home_values); the graph carries both
    directions of every contiguity pair, unit distances, zero indicators.
    """
    data = resources.files("walkfield.data")
    with (resources.as_file(data / "columbus_nodes.csv") as nodes,
          resources.as_file(data / "columbus_edges.csv") as edges):
        graph = load_graph(nodes, edges, symmetric=True)
        crime, home = read_data_table(nodes, ("crime", "home_value"), graph.node_count)
    return graph, crime, home


def stream_network(
    n_mainstem: int = 20,
    n_branch: int = 10,
    confluence: int = 10,
    barrier_edges=((4, 5), (14, 15)),
    segment_length: float = 1.0,
) -> SpatialGraph:
    """Synthetic stream network: a mainstem with one branch joining it.

    Node 0 is the mouth; mainstem nodes 0..n_mainstem-1 run upstream, and
    branch nodes continue from the confluence node.  Every adjacent pair
    gets both directed edges; the edge pointing toward the mouth carries
    downstream=1.  ``barrier_edges`` marks seasonal blockages (both
    directions) by their undirected (lower, upper) node pair.
    """
    pairs = [(i, i + 1) for i in range(n_mainstem - 1)]
    branch_start = n_mainstem
    if n_branch > 0:
        pairs.append((confluence, branch_start))
        pairs += [(branch_start + i, branch_start + i + 1) for i in range(n_branch - 1)]
    barriers = {tuple(sorted(p)) for p in barrier_edges}

    edges = []
    for lo, hi in pairs:
        v = 1 if (lo, hi) in barriers else 0
        # hi is upstream of lo: the hi -> lo direction flows downstream
        edges.append(Edge(hi, lo, EdgeCovariates(segment_length, downstream=1, barrier=v)))
        edges.append(Edge(lo, hi, EdgeCovariates(segment_length, downstream=0, barrier=v)))
    n = n_mainstem + n_branch
    return SpatialGraph(
        node_count=n,
        labels=tuple(f"site{i}" for i in range(n)),
        edges=tuple(edges),
    )
