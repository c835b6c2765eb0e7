"""Network graphs for the routing experiments.

The transport core is an ``n x n`` square lattice of repeater nodes with
4-neighbour connectivity.  A tier of ``n`` source nodes hangs off the left
column (one per row) and a tier of ``n`` destination nodes off the right
column, each tier node attached by a single edge to its row's boundary
transport node.  The ``cylinder`` variant additionally joins the top and
bottom row of every column, wrapping the lattice vertically.

Node ids are assigned row-major: transport node ``(row, col)`` is
``row * n + col``, source ``i`` is ``n*n + i`` and destination ``j`` is
``n*n + n + j``.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import lru_cache

import numpy as np

from .fidelity import NoiseClass

__all__ = [
    "CYLINDER",
    "GRID",
    "TOPOLOGIES",
    "NetworkGraph",
    "NodeKind",
    "assign_classes",
    "build_network",
    "to_edge_list",
]

GRID = "grid"
CYLINDER = "cylinder"
TOPOLOGIES = (GRID, CYLINDER)


class NodeKind(Enum):
    TRANSPORT = "transport"
    SOURCE = "source"
    DESTINATION = "destination"


@dataclass
class NetworkGraph:
    """An undirected simple graph with typed nodes and optional noise classes.

    ``classes[v]`` is ``None`` until :func:`assign_classes` (or
    :meth:`with_classes`) has run; tier nodes never carry a class because
    they perform no swap.
    """

    topology: str
    n: int
    kinds: tuple[NodeKind, ...]
    classes: tuple[NoiseClass | None, ...]
    adjacency: dict[int, set[int]] = field(repr=False)

    @property
    def num_nodes(self) -> int:
        return len(self.kinds)

    @property
    def num_transport(self) -> int:
        return self.n * self.n

    def source_id(self, row: int) -> int:
        return self.num_transport + row

    def destination_id(self, row: int) -> int:
        return self.num_transport + self.n + row

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge once, as ``(u, v)`` with ``u < v``, sorted."""
        for u in sorted(self.adjacency):
            for v in sorted(self.adjacency[u]):
                if u < v:
                    yield u, v

    @property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency.values()) // 2

    def copy(self) -> "NetworkGraph":
        return replace(self, adjacency={v: set(nbrs) for v, nbrs in self.adjacency.items()})

    def with_classes(self, assignment: Mapping[int, NoiseClass]) -> "NetworkGraph":
        """Return a copy with the given node -> class mapping applied."""
        classes = list(self.classes)
        for v, cls in assignment.items():
            if self.kinds[v] is not NodeKind.TRANSPORT:
                raise ValueError(f"node {v} is not a transport node")
            classes[v] = cls
        return replace(self.copy(), classes=tuple(classes))


def _add_edge(adjacency: dict[int, set[int]], u: int, v: int) -> None:
    adjacency[u].add(v)
    adjacency[v].add(u)


def build_network(topology: str, n: int) -> NetworkGraph:
    """Build an unclassed grid or cylinder network of core width ``n`` (n >= 2)."""
    if topology not in TOPOLOGIES:
        raise ValueError(f"unknown topology {topology!r}, expected one of {TOPOLOGIES}")
    if n < 2:
        raise ValueError(f"core width must be at least 2, got {n}")

    num_transport = n * n
    num_nodes = num_transport + 2 * n
    kinds = (
        (NodeKind.TRANSPORT,) * num_transport
        + (NodeKind.SOURCE,) * n
        + (NodeKind.DESTINATION,) * n
    )
    adjacency: dict[int, set[int]] = {v: set() for v in range(num_nodes)}

    for row in range(n):
        for col in range(n):
            if col + 1 < n:
                _add_edge(adjacency, row * n + col, row * n + col + 1)
            if row + 1 < n:
                _add_edge(adjacency, row * n + col, (row + 1) * n + col)
    if topology == CYLINDER:
        # Vertical wrap per column; for n == 2 the wrap coincides with an
        # existing lattice edge and the simple-graph set semantics absorb it.
        for col in range(n):
            _add_edge(adjacency, col, (n - 1) * n + col)
    for row in range(n):
        _add_edge(adjacency, num_transport + row, row * n)
        _add_edge(adjacency, num_transport + n + row, row * n + n - 1)

    return NetworkGraph(
        topology=topology,
        n=n,
        kinds=kinds,
        classes=(None,) * num_nodes,
        adjacency=adjacency,
    )


@lru_cache(maxsize=8)
def base_network(topology: str, n: int) -> NetworkGraph:
    """The unclassed network of a topology and width, built once and shared.

    Routing frames and the sweep engine's classed graphs both derive from
    it, so a classed graph made with ``dataclasses.replace`` shares its
    adjacency with its routing frame.  It must not be mutated.
    """
    return build_network(topology, n)


def assign_classes(
    graph: NetworkGraph,
    xi: float,
    hq: NoiseClass,
    lq: NoiseClass,
    rng: np.random.Generator,
) -> NetworkGraph:
    """Return a copy with a fraction ``xi`` of transport nodes upgraded to ``hq``.

    Exactly ``round(xi * n**2)`` transport nodes, drawn uniformly at random,
    receive the high-quality class; the rest are low quality.  The draw is a
    single permutation of the transport ids, so for a fixed ``rng`` state the
    upgraded sets are nested as ``xi`` grows.
    """
    if not 0.0 <= xi <= 1.0:
        raise ValueError(f"upgrade fraction must lie in [0, 1], got {xi}")
    num = graph.num_transport
    k = round(xi * num)
    order = rng.permutation(num)
    assignment: dict[int, NoiseClass] = {int(v): lq for v in range(num)}
    for v in order[:k]:
        assignment[int(v)] = hq
    return graph.with_classes(assignment)


def to_edge_list(graph: NetworkGraph) -> str:
    """Serialise a network as plain text: a node table, then one edge per line.

    Node lines are ``id kind`` with the class label appended when assigned;
    edge lines are ``u v`` with ``u < v``.  Section headers start with ``#``.
    """
    lines = ["# nodes: id kind [class]"]
    for v in range(graph.num_nodes):
        parts = [str(v), graph.kinds[v].value]
        if graph.classes[v] is not None:
            parts.append(graph.classes[v].label)
        lines.append(" ".join(parts))
    lines.append("# edges: u v")
    for u, v in graph.edges():
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"
