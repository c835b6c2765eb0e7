"""Sequential path allocation for batches of entanglement requests.

Requests are served one at a time in a randomised establishment order.  Each
request takes a node-weighted shortest path through the residual network,
pays a fidelity check against a threshold, and on success consumes the edges
of its path.  Requests that find no path, or only a path below the fidelity
threshold, are blocked; blocked requests consume nothing.

Path cost is the sum of the weights of the nodes a path enters after the
source; tier nodes always weigh zero, transport nodes are weighed by a
mapping from their noise rate.  A network has two transport classes at
most, high and low quality, so the router reduces a classed graph to one
flag per node that marks the low-quality class.  Ties in cost
resolve to the path whose node id sequence is lexicographically smallest,
which pins down one deterministic route per (residual graph, request)
pair.  Costs are compared exactly: the weights are scaled to integers
first, so equal-cost paths tie whatever the order in which their weights
are summed.  Being integers, they also index the queue of the reverse
search that finds a route: one bucket of nodes per distinct pending
label, not one entry per node (see :class:`Search`).

Routing runs on a static frame of the base network (sorted neighbours, each
paired with its edge's bit), and a residual network is one int, the mask of
edges already consumed.  The module keeps one memo, for the last classed
graph served.  Two tables live while the frame is the same: the fewest-hop
routes, which every graph whose transport nodes all cost the same shares
(uniform costs route by fewest hops at any scale), and the fidelity per
link fidelity and (noise rate, node count) of each class.  The graph's
other routes, per (source, destination, residual mask), and its
resumable reverse searches per (destination, residual mask) die with it;
only the searches pass to the next graph, while the mapping is the same
and no node cost rises, repaired on first use, so the searches of two
graphs at most are alive.  A request reads its route from the route
table and is scored through the score memo, so nothing else is stored
per request.
A request on a residual network first takes the route on the batch's start
network: every path open on the residual network is open there too, so
when no consumed edge lies on that route, or there is none, it is the
answer, and only otherwise does the residual network get a search.
The module-level :data:`counters` count batches, requests and the work done
on memo misses.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from heapq import heappop, heappush
from math import inf, isfinite, lcm
from operator import attrgetter, le
from typing import NamedTuple

import numpy as np

from .fidelity import NoiseClass, two_class_fidelity
from .topology import NetworkGraph, NodeKind, base_network

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

    def __post_init__(self) -> None:
        if self.source == self.destination:
            raise ValueError("source and destination must differ")


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


def _two_classes(
    graph: NetworkGraph, mapping: WeightMapping
) -> tuple[tuple[float, float], tuple[int, ...], tuple[int, ...]]:
    """A classed graph's high- and low-quality noise rates, a flag per node
    and every node's exact integer cost; the mapping is evaluated once per
    class.

    The class of the higher noise rate, then of the smaller label, is the
    high-quality one, and a graph of one class pairs its rate with itself.  A
    node's flag is 1 when it belongs to the low-quality class and 0
    otherwise, tier nodes included.
    """
    transport = graph.classes[: graph.num_transport]
    distinct = set(transport)
    if None in distinct:
        raise ValueError(f"transport node {transport.index(None)} has no noise class assigned")
    if len(distinct) > 2:
        raise ValueError(f"the router takes two transport classes at most, got {len(distinct)}")
    classes = sorted(distinct, key=lambda cls: (-cls.eta, cls.label))
    weights = []
    for cls in classes:
        w = mapping(cls.eta)
        if w <= 0.0:
            raise ValueError(f"weight mapping returned non-positive weight {w} for {cls.label}")
        weights.append(float(w))
    flags = tuple(int(cls != classes[0]) for cls in transport)
    cost = integer_costs(weights)
    tiers = (0,) * (graph.num_nodes - len(flags))
    costs = tuple(map(cost.__getitem__, flags)) + tiers
    return (classes[0].eta, classes[-1].eta), flags + tiers, costs


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
    ``edges`` lists every edge once as ``(u, v, bit)``, and ``adjacency``
    is the base network's own.
    """

    edges: tuple[tuple[int, int, int], ...]
    neighbours: tuple[tuple[tuple[int, int], ...], ...]
    adjacency: Mapping[int, set[int]]


@lru_cache(maxsize=8)
def _base_frame(topology: str, n: int) -> Frame:
    graph = base_network(topology, n)
    bits = {edge: 1 << i for i, edge in enumerate(graph.edges())}
    neighbours = tuple(
        tuple((w, bits[(v, w) if v < w else (w, v)]) for w in sorted(graph.adjacency[v]))
        for v in range(graph.num_nodes)
    )
    return Frame(
        tuple((u, v, bit) for (u, v), bit in bits.items()),
        neighbours,
        graph.adjacency,
    )


def network_frame(graph: NetworkGraph) -> tuple[Frame, int]:
    """The frame of a graph's base network and the mask of base edges it lacks.

    The base network is the one ``base_network`` gives for the graph's
    topology and width; the graph must be a subgraph of it.  A graph that
    shares the base network's adjacency is recognised by identity, any
    other by a scan of the base edges.
    """
    frame = _base_frame(graph.topology, graph.n)
    adjacency = graph.adjacency
    if adjacency is frame.adjacency:
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


class Search(NamedTuple):
    """A resumable reverse search toward one destination on one residual network.

    It is Dijkstra's search with one bucket of nodes per integer label, after
    Dial's bucket queue (R. B. Dial, "Algorithm 360", CACM 12(11), 1969):
    ``togo`` holds each node's cost to go found so far, ``labels`` is a heap
    of the distinct labels still pending and ``buckets`` maps each of them
    to the nodes given it, but for the tier nodes that can lower no label
    (see :func:`cheapest_route`).  A node in a bucket whose label it no
    longer has was lowered since, and is skipped.  A label is final once no
    pending label is below it.
    """

    togo: list[float]
    labels: list[int]
    buckets: dict[int, list[int]]


def _search(frame: Frame, destination: int) -> Search:
    togo: list[float] = [inf] * len(frame.neighbours)
    togo[destination] = 0
    return Search(togo, [0], {0: [destination]})


def cheapest_route(
    frame: Frame,
    costs: Sequence[int],
    source: int,
    destination: int,
    used: int,
    search: Search | None = None,
) -> Route | None:
    """Cheapest path over the edges not in ``used``, ties to the smallest id sequence.

    A reverse search from the destination expands its pending labels in
    increasing order, each label's whole bucket at once, until no label is
    below the source's, which is then its exact cost to go.  A tier
    destination weighs zero, so it gives its neighbour the label being
    expanded, in a fresh bucket at that label, which is expanded next.  Any
    other tier node is a leaf whose label exceeds its one neighbour's, so it
    can lower no label: it is given one but joins no bucket.  A walk from
    the source then steps, at each node, to the smallest-id neighbour that
    stays on a cheapest path.  The lexicographically smallest cheapest path
    starts with the smallest such neighbour and continues with the smallest
    cheapest path from it, so the walk finds it.  Transport costs must be
    positive: cost to go then falls strictly along the walk, which keeps it
    simple, and every node the walk steps to has a final label below the
    source's.

    ``search``, if given, is the state that earlier calls toward
    ``destination`` on the same ``used`` left behind, under ``costs`` or
    under costs no lower at any node and then repaired by
    :func:`_take_search`, and the search resumes where it stopped.  Every
    label then bounds its node's cost to go from above, and every node that
    may still lower a neighbour's label is pending in the bucket of its own
    label.  So a label below every pending label is final, and resuming
    only makes more labels final: the route is the one a fresh search finds.
    """
    neighbours = frame.neighbours
    togo, labels, buckets = _search(frame, destination) if search is None else search
    while labels and labels[0] < togo[source]:
        label = heappop(labels)
        for u in buckets.pop(label):
            if togo[u] != label:
                continue
            via = label + costs[u]
            bucket = None
            for w, bit in neighbours[u]:
                if via < togo[w] and not used & bit:
                    togo[w] = via
                    if not costs[w]:  # a tier node, which lowers no label
                        continue
                    if bucket is None:
                        bucket = buckets.get(via)
                        if bucket is None:
                            bucket = buckets[via] = []
                            heappush(labels, via)
                    bucket.append(w)
    if togo[source] == inf:
        return None
    path = [source]
    edges = 0
    v = source
    while v != destination:
        left = togo[v]
        for w, bit in neighbours[v]:
            if togo[w] + costs[w] == left and not used & bit:
                break
        else:
            raise ValueError("search does not belong to this destination and residual network")
        path.append(w)
        edges |= bit
        v = w
    return Route(tuple(path), edges)


def _fidelity_scorer(
    rates: tuple[float, float],
    flags: Sequence[int],
    num_transport: int,
    link_fidelity: float,
    memo: dict,
) -> Callable[[Route], float]:
    """Score routes by their high- and low-quality node counts alone,
    through :func:`two_class_fidelity` and a memo keyed by the link
    fidelity and each class's noise rate and count.

    A value depends on that key only, so graphs of any classes and link
    fidelities may share ``memo``.
    """
    eta_h, eta_l = rates
    flag = flags.__getitem__

    def fidelity(route: Route) -> float:
        path = route.path
        # Tier nodes are leaves, so only the ends of a route may be tier nodes.
        n_l = sum(map(flag, path))
        n_h = len(path) - (path[0] >= num_transport) - (path[-1] >= num_transport) - n_l
        key = (link_fidelity, eta_h, n_h, eta_l, n_l)
        f = memo.get(key)
        if f is None:
            f = memo[key] = two_class_fidelity(n_h, n_l, eta_h, eta_l, link_fidelity)
        return f

    return fidelity


class _Router(NamedTuple):
    """What serving a batch on one classed graph needs besides its requests.

    ``hops`` and ``scores`` belong to the frame: the route table for
    transport costs that are all equal, which is ``routes`` on such a
    graph, and the score memo of :func:`_fidelity_scorer`, which
    ``fidelity`` fills.  The rest belong to this graph.  ``routes`` maps
    (source, destination, residual mask) to its route, or ``None`` when
    there is none, and ``searches`` maps (destination, residual mask) to
    its :class:`Search`.  ``carried`` is the previous graph's
    ``searches``, which this graph may take over after putting the nodes
    ``lowered``, whose costs fell, back into the buckets of their
    labels.
    """

    classes: tuple[NoiseClass | None, ...]
    frame: Frame
    mapping: WeightMapping
    link_fidelity: float
    costs: tuple[int, ...]
    routes: dict
    scores: dict
    fidelity: Callable[[Route], float]
    searches: dict
    carried: dict
    lowered: tuple[int, ...]
    hops: dict


@dataclass
class Counters:
    """Work done by :func:`allocate_batch` and the batches spared it.

    ``batches`` counts calls and ``requests`` the requests they served.
    ``no_path`` and ``below_threshold`` count blocked requests by reason.
    ``reused`` counts the batches the trial engine took from a lower
    threshold instead of calling :func:`allocate_batch`, so ``batches +
    reused`` is a study's batch count.  The rest count memo misses:
    ``walks`` the routes computed, ``searches`` the reverse searches
    started afresh, ``carried`` those taken over from the previous classed
    graph and repaired, and ``certified`` the residual routes answered by
    the route on the batch's start network.  A route-table hit counts
    nothing.
    """

    batches: int = 0
    requests: int = 0
    no_path: int = 0
    below_threshold: int = 0
    reused: int = 0
    searches: int = 0
    carried: int = 0
    walks: int = 0
    certified: int = 0


# Counts since the module was imported; readers take differences.
counters = Counters()

# The last router built; the whole routing memo of the module.  Every memo
# entry is a pure function of its key, so a stale or shared slot can cost
# work but never change a result.
_last: _Router | None = None


def _router(
    graph: NetworkGraph, frame: Frame, mapping: WeightMapping, link_fidelity: float
) -> _Router:
    """Node costs, route table and scorer for a classed graph.

    The graph's two noise rates, node flags and costs come from
    :func:`_two_classes`, which rejects an unclassed transport node or a
    third class.  The last router is reused while calls pass the same
    ``classes`` tuple (which it keeps alive), frame, mapping and link
    fidelity, as consecutive batches of one class draw do.  A mapping is
    taken to be a pure function of the noise rate.  A new router takes
    state over under two rules.  While the frame is the same, it takes the
    score memo and the ``hops`` route table, which every graph whose
    transport nodes all cost the same routes through (as the unaware
    mapping's and the all-LQ and all-HQ graphs of a sweep do): scaling
    every cost by one factor keeps the order of path costs.  While the
    mapping is also the same and no node's cost rose, as when a sweep
    upgrades more nodes of one class draw, it takes the last graph's
    searches, each repaired on its first use (see :func:`_take_search`).
    Every other table belongs to one graph.
    """
    global _last
    last = _last
    if (
        last is not None
        and last.classes is graph.classes
        and last.frame is frame
        and last.mapping is mapping
        and last.link_fidelity == link_fidelity
    ):
        return last
    rates, flags, costs = _two_classes(graph, mapping)
    hops, scores, carried, lowered = {}, {}, {}, ()
    if last is not None and last.frame is frame:
        hops, scores = last.hops, last.scores
        if last.mapping is mapping and all(map(le, costs, last.costs)):
            carried = last.searches
            lowered = tuple(v for v, (c, was) in enumerate(zip(costs, last.costs)) if c < was)
    routes = hops if len(set(costs) - {0}) == 1 else {}
    scorer = _fidelity_scorer(rates, flags, graph.num_transport, link_fidelity, scores)
    _last = _Router(
        graph.classes, frame, mapping, link_fidelity, costs, routes, scores, scorer,
        {}, carried, lowered, hops,
    )
    return _last


def _take_search(router: _Router, destination: int, used: int) -> Search:
    """Give the router's graph its search toward ``destination`` on ``used``.

    A search the previous graph left for the key moves over, repaired for
    the nodes whose cost fell; otherwise a fresh one starts.
    """
    search = router.carried.pop((destination, used), None)
    if search is None:
        counters.searches += 1
        search = _search(router.frame, destination)
    else:
        # Every label is the cost of a real path, which can only have got
        # cheaper, so it still bounds the cost to go from above.  Only a
        # node whose own cost fell can offer its neighbours a cheaper
        # label, so each such node with a finite label goes back into the
        # bucket of its label, and resuming relaxes its neighbours at the
        # new cost: the decrease-only case of dynamic shortest paths
        # (Ramalingam & Reps, J. Algorithms 21(2), 1996).
        counters.carried += 1
        togo, labels, buckets = search
        for u in router.lowered:
            label = togo[u]
            if label < inf:
                if label not in buckets:
                    buckets[label] = []
                    heappush(labels, label)
                buckets[label].append(u)
    router.searches[destination, used] = search
    return search


def _walk(router: _Router, source: int, destination: int, used: int) -> Route | None:
    """Compute and store the route for (source, destination, used), on the
    router's search toward ``destination`` on ``used``."""
    counters.walks += 1
    search = router.searches.get((destination, used))
    if search is None:
        search = _take_search(router, destination, used)
    route = router.routes[source, destination, used] = cheapest_route(
        router.frame, router.costs, source, destination, used, search
    )
    return route


def _check_endpoints(frame: Frame, source: int, destination: int) -> None:
    for v in (source, destination):
        if not 0 <= v < len(frame.neighbours):
            raise ValueError(f"node {v} is not in the network")


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
    _check_endpoints(frame, source, destination)
    _, _, costs = _two_classes(graph, mapping)
    route = cheapest_route(frame, costs, source, destination, used)
    return None if route is None else route.path


def path_composition(graph: NetworkGraph, path: Sequence[int]) -> dict[NoiseClass, int]:
    """Count the transport nodes of each noise class along a path."""
    counts: dict[NoiseClass, int] = {}
    for v in path:
        if graph.kinds[v] is not NodeKind.TRANSPORT:
            continue
        cls = graph.classes[v]
        if cls is None:
            raise ValueError(f"transport node {v} has no noise class assigned")
        counts[cls] = counts.get(cls, 0) + 1
    return counts


def allocate_batch(
    graph: NetworkGraph,
    requests: Sequence[RoutingRequest],
    mapping: WeightMapping,
    fidelity_threshold: float,
    link_fidelity: float,
) -> tuple[list[PathAllocation], int]:
    """Serve the requests in establishment order on a residual view of ``graph``.

    Returns the allocations in establishment order together with the number
    of blocked requests.  ``graph`` itself is never mutated.  Routes come
    from the route table of the module's memo of the last classed graph
    (see :func:`_router`), so consecutive calls on one graph, whatever
    their thresholds, route each (endpoints, residual network) once, and
    all routes toward one destination on one residual network share one
    resumed reverse search, which a graph whose node costs fell from the
    previous graph's carries over.  Each routed request is scored through
    the frame's score memo, so a route is scored once per (link fidelity,
    class counts).  A request that meets consumed edges
    takes its route on ``graph`` itself when none of them lies on it (see
    the module's docstring).  Each call adds to :data:`counters`.  An
    endpoint that is no node of ``graph`` is a ``ValueError``.
    """
    ordered = sorted(requests, key=_theta)
    if list(map(_theta, ordered)) != list(range(1, len(ordered) + 1)):
        raise ValueError("request thetas must be exactly 1..P")

    frame, start = network_frame(graph)
    router = _router(graph, frame, mapping, link_fidelity)
    routes, fidelity = router.routes, router.fidelity
    used = start
    counters.batches += 1
    counters.requests += len(ordered)
    allocations = []
    blocked = no_path = 0
    for request in ordered:
        source, destination = request.source, request.destination
        key = (source, destination, used)
        route = routes.get(key, _UNROUTED)
        if route is _UNROUTED:
            # The table stores a key only once it passed this check.
            _check_endpoints(frame, source, destination)
            route = routes.get((source, destination, start), _UNROUTED)
            if route is _UNROUTED:
                route = _walk(router, source, destination, start)
            if used != start:
                # Every path open on ``used`` is open on ``start``, so the
                # start route is the answer when it is None or avoids
                # every consumed edge; only otherwise does ``used`` need
                # a search of its own.
                if route is None or not route.edges & used:
                    counters.certified += 1
                    routes[key] = route
                else:
                    route = _walk(router, source, destination, used)
        if route is None:
            reason = BlockReason.NO_PATH
            no_path += 1
        elif (f := fidelity(route)) >= fidelity_threshold:
            used |= route.edges
            allocations.append(PathAllocation(request, route.path, f, None))
            continue
        else:
            reason = BlockReason.BELOW_THRESHOLD
        allocations.append(PathAllocation(request, None, None, reason))
        blocked += 1
    counters.no_path += no_path
    counters.below_threshold += blocked - no_path
    return allocations, blocked
