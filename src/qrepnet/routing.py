"""Sequential path allocation for batches of entanglement requests.

Requests are served one at a time in a randomised establishment order.  Each
request takes a node-weighted shortest path through the residual network,
pays a fidelity check against a threshold, and on success consumes the edges
of its path.  Requests that find no path, or only a path below the fidelity
threshold, are blocked; blocked requests consume nothing.

Path cost is the sum of the weights of the nodes a path enters after the
source; tier nodes always weigh zero, transport nodes are weighed by a
mapping from their noise rate.  Ties in cost resolve to the path whose node
id sequence is lexicographically smallest, which pins down one deterministic
route per (residual graph, request) pair.  Costs are compared exactly: the
weights are scaled to integers first, so equal-cost paths tie whatever the
order in which their weights are summed.

Routing runs on a static frame of the base network (sorted neighbours, each
paired with its edge's bit), and a residual network is one int, the mask of
edges already consumed.  Routes are memoised per (frame, node costs) on
(source, destination, residual mask), and fidelities per class palette on
the sequence of classes a route meets.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, MutableMapping, Sequence
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from heapq import heappop, heappush
from math import inf, isfinite, lcm
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .fidelity import NoiseClass, PathComposition, end_to_end_fidelity
from .topology import NetworkGraph, NodeKind, build_network

__all__ = [
    "BlockReason",
    "PathAllocation",
    "RoutingRequest",
    "WeightMapping",
    "allocate_batch",
    "noise_aware_mapping",
    "noise_unaware_mapping",
    "path_composition",
    "shortest_path",
    "shuffle_requests",
]

WeightMapping = Callable[[float], float]

DEFAULT_LQ_WEIGHT = 100.0

_UNROUTED = object()

_theta = attrgetter("theta")


def noise_unaware_mapping() -> WeightMapping:
    """Weigh every transport node 1 regardless of noise rate (hop count routing)."""

    def weight(eta: float) -> float:
        return 1.0

    return weight


def noise_aware_mapping(
    lq_eta: float, lq_weight: float = DEFAULT_LQ_WEIGHT
) -> WeightMapping:
    """Weigh low-quality nodes ``lq_weight`` and everything else 1.

    A node counts as low quality when its noise rate equals ``lq_eta``.  With
    the default weight of 100 a single low-quality node costs more than any
    detour over high-quality ones, so routing avoids low-quality nodes
    whenever the residual network allows it.
    """
    if lq_weight <= 0.0:
        raise ValueError(f"node weight must be positive, got {lq_weight}")

    def weight(eta: float) -> float:
        return lq_weight if eta == lq_eta else 1.0

    return weight


class BlockReason(Enum):
    NO_PATH = "no_path"
    BELOW_THRESHOLD = "below_threshold"


@dataclass(frozen=True)
class RoutingRequest:
    """One source-destination pair with its establishment order position."""

    source: int
    destination: int
    theta: int


class PathAllocation(NamedTuple):
    """Outcome of serving one request: an allocated path or a block reason."""

    request: RoutingRequest
    path: tuple[int, ...] | None
    fidelity: float | None
    blocked: BlockReason | None

    @property
    def allocated(self) -> bool:
        return self.path is not None


def shuffle_requests(
    pairs: Sequence[tuple[int, int]], rng: np.random.Generator
) -> list[RoutingRequest]:
    """Draw an establishment order for the pairs, uniformly over permutations.

    The returned list is in establishment order, ``theta`` running 1..P.
    """
    order = rng.permutation(len(pairs))
    return [
        RoutingRequest(source=pairs[int(i)][0], destination=pairs[int(i)][1], theta=pos + 1)
        for pos, i in enumerate(order)
    ]


def _palette(graph: NetworkGraph) -> tuple[tuple[NoiseClass, ...], tuple[int, ...]]:
    """A graph's distinct transport classes and every node's code into them.

    The palette lists the class objects of the transport nodes by identity,
    in node order; a node's code is ``i`` for ``palette[i - 1]`` and 0 for
    a tier node.
    """
    transport = graph.classes[: graph.num_transport]
    ids = tuple(map(id, transport))
    if id(None) in ids:
        raise ValueError(f"transport node {ids.index(id(None))} has no noise class assigned")
    by_id = dict(zip(ids, transport))
    code_of = {i: code for code, i in enumerate(by_id, 1)}
    codes = tuple(map(code_of.__getitem__, ids)) + (0,) * (graph.num_nodes - len(ids))
    return tuple(by_id.values()), codes


def _node_costs(
    mapping: WeightMapping, palette: Sequence[NoiseClass], codes: Sequence[int]
) -> tuple[int, ...]:
    """Every node's exact integer cost; the mapping is evaluated once per class."""
    weights = [0.0]
    for cls in palette:
        w = mapping(cls.eta)
        if w <= 0.0:
            raise ValueError(f"weight mapping returned non-positive weight {w} for {cls.label}")
        weights.append(float(w))
    return tuple(map(integer_costs(weights).__getitem__, codes))


def integer_costs(weights: Sequence[float]) -> tuple[int, ...]:
    """Scale non-negative finite weights to integers in the same exact ratios.

    Every weight is multiplied by the least common multiple of the
    denominators of the weights' exact binary fractions, so integer weights
    map to themselves and path costs compare without rounding.
    """
    ratios = []
    for w in weights:
        if not (isfinite(w) and w >= 0.0):
            raise ValueError(f"node weight must be finite and non-negative, got {w}")
        ratios.append(float(w).as_integer_ratio())
    scale = lcm(*(q for _, q in ratios))
    return tuple(p * (scale // q) for p, q in ratios)


class Route(NamedTuple):
    """A path with the frame edges it uses, as a bitmask."""

    path: tuple[int, ...]
    edges: int


class Frame(NamedTuple):
    """The static edge structure of a base network.

    ``neighbours[v]`` lists ``(w, bit)`` for every neighbour ``w`` of ``v`` in
    increasing id order, ``bit`` being the edge's flag in a residual mask;
    ``edges`` lists every edge once as ``(u, v, bit)``.  ``key`` identifies
    the network in route memos, and ``adjacency`` is the base network's own.
    """

    key: tuple[str, int]
    edges: tuple[tuple[int, int, int], ...]
    neighbours: tuple[tuple[tuple[int, int], ...], ...]
    adjacency: Mapping[int, set[int]]


@lru_cache(maxsize=8)
def _base_frame(topology: str, n: int) -> Frame:
    graph = build_network(topology, n)
    bits = {edge: 1 << i for i, edge in enumerate(graph.edges())}
    neighbours = tuple(
        tuple((w, bits[(v, w) if v < w else (w, v)]) for w in sorted(graph.adjacency[v]))
        for v in range(graph.num_nodes)
    )
    return Frame(
        (topology, n),
        tuple((u, v, bit) for (u, v), bit in bits.items()),
        neighbours,
        graph.adjacency,
    )


def network_frame(graph: NetworkGraph) -> tuple[Frame, int]:
    """The frame of a graph's base network and the mask of base edges it lacks.

    The base network is the one ``build_network`` gives for the graph's
    topology and width; the graph must be a subgraph of it.
    """
    frame = _base_frame(graph.topology, graph.n)
    adjacency = graph.adjacency
    if adjacency == frame.adjacency:
        return frame, 0
    if len(frame.neighbours) == graph.num_nodes:
        missing = kept = 0
        for u, v, bit in frame.edges:
            if v in adjacency[u]:
                kept += 1
            else:
                missing |= bit
        if kept == graph.num_edges:
            return frame, missing
    raise ValueError("graph is not a subgraph of its base network")


def cheapest_route(
    frame: Frame, costs: Sequence[int], source: int, destination: int, used: int
) -> Route | None:
    """Cheapest path over the edges not in ``used``, ties to the smallest id sequence.

    A reverse Dijkstra from the destination settles the exact cost to go of
    every node up to the source.  A walk from the source then steps, at each
    node, to the smallest-id neighbour that stays on a cheapest path.  The
    lexicographically smallest cheapest path starts with the smallest such
    neighbour and continues with the smallest cheapest path from it, so the
    walk finds it.  Transport costs must be positive: cost to go then falls
    strictly along the walk, which keeps it simple.
    """
    neighbours = frame.neighbours
    togo: list[float] = [inf] * len(neighbours)
    togo[destination] = 0
    heap = [(0, destination)]
    while heap:
        cost, u = heappop(heap)
        if u == source:
            break
        if cost > togo[u]:
            continue
        via = cost + costs[u]
        for w, bit in neighbours[u]:
            if via < togo[w] and not used & bit:
                togo[w] = via
                heappush(heap, (via, w))
    else:
        return None
    path = [source]
    edges = 0
    v = source
    while v != destination:
        left = togo[v]
        for w, bit in neighbours[v]:
            if togo[w] + costs[w] == left and not used & bit:
                break
        path.append(w)
        edges |= bit
        v = w
    return Route(tuple(path), edges)


def _fidelity_scorer(
    palette: Sequence[NoiseClass], codes: Sequence[int], link_fidelity: float, memo: dict
) -> Callable[[Route], float]:
    """Score routes through a memo keyed by the class codes along the route.

    A route's fidelity depends only on the classes it meets, in order:
    :func:`end_to_end_fidelity` multiplies the class factors in encounter
    order.  Each memo value is computed by that function from the
    composition :func:`path_composition` would give, so every score is
    bit-identical to scoring the route directly.  Graphs with the same
    palette and link fidelity may share ``memo``.
    """
    code_of = codes.__getitem__

    def fidelity(route: Route) -> float:
        key = tuple(map(code_of, route.path))
        f = memo.get(key)
        if f is None:
            counts: dict[NoiseClass, int] = {}
            for code in key:
                if code:
                    cls = palette[code - 1]
                    counts[cls] = counts.get(cls, 0) + 1
            f = memo[key] = end_to_end_fidelity(PathComposition(counts), link_fidelity)
        return f

    return fidelity


class _Router(NamedTuple):
    """What serving a batch on one classed graph needs besides its requests."""

    classes: tuple[NoiseClass | None, ...]
    frame: Frame
    mapping: WeightMapping
    link_fidelity: float
    costs: tuple[int, ...]
    routes: dict
    fidelity: Callable[[Route], float]


_ROUTER = ("router",)


def _router(
    graph: NetworkGraph,
    frame: Frame,
    mapping: WeightMapping,
    link_fidelity: float,
    cache: MutableMapping,
) -> _Router:
    """Node costs, route memo and scorer for a classed graph, built through ``cache``.

    Routes are memoised per (frame, costs) on (source, destination, mask of
    missing edges), and fidelities per (link fidelity, palette) on the class
    codes along a route.  The last router is kept in ``cache`` too and
    reused while calls pass the same ``classes`` tuple (which it keeps
    alive), frame, mapping and link fidelity, as consecutive batches of one
    class draw do.  A mapping is taken to be a pure function of the noise
    rate.
    """
    router = cache.get(_ROUTER)
    if (
        router is None
        or router.classes is not graph.classes
        or router.frame is not frame
        or router.mapping is not mapping
        or router.link_fidelity != link_fidelity
    ):
        palette, codes = _palette(graph)
        costs = _node_costs(mapping, palette, codes)
        router = cache[_ROUTER] = _Router(
            graph.classes,
            frame,
            mapping,
            link_fidelity,
            costs,
            cache.setdefault((frame.key, costs), {}),
            _fidelity_scorer(
                palette, codes, link_fidelity,
                cache.setdefault(("fidelity", link_fidelity, palette), {}),
            ),
        )
    return router


def shortest_path(
    graph: NetworkGraph,
    source: int,
    destination: int,
    mapping: WeightMapping,
) -> tuple[int, ...] | None:
    """Minimum-weight path between two nodes, or ``None`` if disconnected."""
    if source == destination:
        raise ValueError("source and destination must differ")
    frame, used = network_frame(graph)
    costs = _node_costs(mapping, *_palette(graph))
    route = cheapest_route(frame, costs, source, destination, used)
    return None if route is None else route.path


def path_composition(graph: NetworkGraph, path: Sequence[int]) -> PathComposition:
    """Count the noise classes of the transport nodes along a path."""
    counts: dict[NoiseClass, int] = {}
    for v in path:
        if graph.kinds[v] is not NodeKind.TRANSPORT:
            continue
        cls = graph.classes[v]
        if cls is None:
            raise ValueError(f"transport node {v} has no noise class assigned")
        counts[cls] = counts.get(cls, 0) + 1
    return PathComposition(counts)


def allocate_batch(
    graph: NetworkGraph,
    requests: Sequence[RoutingRequest],
    mapping: WeightMapping,
    fidelity_threshold: float,
    link_fidelity: float,
    path_cache: MutableMapping | None = None,
) -> tuple[list[PathAllocation], int]:
    """Serve the requests in establishment order on a residual view of ``graph``.

    Returns the allocations in establishment order together with the number
    of blocked requests.  ``graph`` itself is never mutated.  An optional
    ``path_cache`` memoises across calls: shortest paths, keyed by the
    graph's base network, the node costs, the endpoints and the edges
    missing from the residual network (whether absent from ``graph`` or
    consumed); fidelities, keyed by the classes a route meets in order; and
    the node costs of the last class tuple seen (see :func:`_router`).
    Callers may share one cache between any batches.
    """
    ordered = sorted(requests, key=_theta)
    if list(map(_theta, ordered)) != list(range(1, len(ordered) + 1)):
        raise ValueError("request thetas must be exactly 1..P")

    frame, used = network_frame(graph)
    router = _router(graph, frame, mapping, link_fidelity, {} if path_cache is None else path_cache)
    costs, routes, fidelity = router.costs, router.routes, router.fidelity
    allocations = []
    blocked = 0
    for request in ordered:
        source, destination = request.source, request.destination
        key = (source, destination, used)
        route = routes.get(key, _UNROUTED)
        if route is _UNROUTED:
            route = routes[key] = cheapest_route(frame, costs, source, destination, used)
        if route is None:
            reason = BlockReason.NO_PATH
        else:
            f = fidelity(route)
            if f >= fidelity_threshold:
                used |= route.edges
                allocations.append(PathAllocation(request, route.path, f, None))
                continue
            reason = BlockReason.BELOW_THRESHOLD
        allocations.append(PathAllocation(request, None, None, reason))
        blocked += 1
    return allocations, blocked
