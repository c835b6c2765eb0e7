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
edges already consumed.  Routes depend on node costs only, and a route's
fidelity only on its high- and low-quality node counts, the two noise
rates and the link fidelity, so routes and scores have memos of their
own.  Scores are memoised for the process (:func:`_fidelity`).  Routes
live in one memo, for the last classed graph served: the fewest-hop
routes, which every graph whose transport nodes all cost the same shares
(uniform costs route by fewest hops at any scale), live while the frame
is the same.  The graph's other routes, per (source, destination,
residual mask), and its resumable reverse searches per (destination,
residual mask) die with it; only the searches pass to the next graph,
while the mapping is the same and no node cost rises, repaired on first
use, so the searches of two graphs at most are alive.  A request reads
its route from the route table and its score from the score memo, so
nothing else is stored per request.
A threshold bounds the routes worth walking: a score depends on the class
counts alone and a cost on the counts and the destination, so every
threshold fixes the costliest route that could still pass
(:func:`_passing_cost`).  A search stops above that bound, and a request
whose route would cost more is blocked below the threshold with no walk
and no score, or for want of a path when the residual network does not
connect its endpoints; its table entry is then a mark of the bound (see
:func:`_beyond`), and a later call with a larger bound resumes the search.
A request on a residual network first takes the route on the batch's start
network: every path open on the residual network is open there too, at
the same cost, so when no consumed edge lies on that route, or there is
none, it is the answer, when it costs more than the bound so does every
residual route, and only otherwise does the residual network get a
search.  Both entry points, :func:`shortest_path` and
:func:`allocate_batch`, read the one memo, and one routine, :func:`_walk`,
answers every miss.  The module-level :data:`counters` count batches,
requests and the work done on memo misses by either entry point.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cache, lru_cache
from heapq import heappop, heappush
from math import inf, lcm
from operator import attrgetter, index, le
from typing import NamedTuple

import numpy as np

from . import fidelity
from .fidelity import NoiseClass, two_class_fidelity, werner_parameter
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

# A route table's answer for a key it lacks: a mark (see :func:`_beyond`)
# below every bound, which are -1 or more, so it is never trusted.
_UNROUTED = -2

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
    whenever the residual network allows it.  The weight must be positive
    and finite, or it is a ``ValueError``, so a NaN fails too.
    """
    if not 0.0 < lq_weight < inf:
        raise ValueError(f"aware weight must be positive and finite, got {lq_weight}")

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
        # Ids index the router's lists and key its memos, so they are kept as
        # ints: a numpy integer is converted, a float raises TypeError.
        object.__setattr__(self, "source", index(self.source))
        object.__setattr__(self, "destination", index(self.destination))
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
) -> tuple[tuple[float, float], tuple[int, int], tuple[int, ...], tuple[int, ...]]:
    """A classed graph's high- and low-quality noise rates and exact integer
    costs, a flag per node and every node's cost; the mapping is evaluated
    once per class.

    The class of the higher noise rate, then of the smaller label, is the
    high-quality one, and a graph of one class pairs its rate and its cost
    with themselves.  A node's flag is 1 when it belongs to the low-quality
    class and 0 otherwise, tier nodes included.  A class's weight must be
    positive and finite, or it is a ``ValueError``, which a NaN fails too:
    this checks the weights of any mapping, not only those
    :func:`noise_aware_mapping` builds.
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
        w = float(mapping(cls.eta))
        if not 0.0 < w < inf:
            raise ValueError(f"node weight must be positive and finite, got {w} for {cls.label}")
        weights.append(w)
    flags = tuple(int(cls != classes[0]) for cls in transport)
    cost = integer_costs(weights)
    tiers = (0,) * (graph.num_nodes - len(flags))
    costs = tuple(map(cost.__getitem__, flags)) + tiers
    return (classes[0].eta, classes[-1].eta), (cost[0], cost[-1]), flags + tiers, costs


def integer_costs(weights: Sequence[float]) -> tuple[int, ...]:
    """Scale non-negative finite weights to integers in the same exact ratios;
    the caller checks the weights (see :func:`_two_classes`).

    Every weight is multiplied by the least common multiple of the
    denominators of the weights' exact binary fractions, so integer weights
    map to themselves and path costs compare without rounding.
    """
    ratios = [float(w).as_integer_ratio() for w in weights]
    scale = lcm(*(q for _, q in ratios))
    return tuple(p * (scale // q) for p, q in ratios)


class Route(NamedTuple):
    """A path with the frame edges it uses, as a bitmask."""

    path: tuple[int, ...]
    edges: int


class Frame(NamedTuple):
    """The static edge structure of a base network.

    ``neighbours[v]`` lists ``(w, bit)`` for every neighbour ``w`` of ``v`` in
    increasing id order, ``bit`` being the edge's flag in a residual mask,
    so each edge is listed from both of its ends; ``adjacency`` is the base
    network's own.
    """

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
    return Frame(neighbours, graph.adjacency)


def network_frame(graph: NetworkGraph) -> tuple[Frame, int]:
    """The frame of a graph's base network and the mask of base edges it lacks.

    The base network is the one ``base_network`` gives for the graph's
    topology and width; the graph must be a subgraph of it.  A graph that
    shares the base network's adjacency is recognised by identity, any
    other by a scan of the base edges from both of their ends, which must
    meet every edge of the graph twice: an edge outside the base network,
    or one that only one of its ends lists, is a ``ValueError``.
    """
    frame = _base_frame(graph.topology, graph.n)
    adjacency = graph.adjacency
    if adjacency is frame.adjacency:
        return frame, 0
    if len(frame.neighbours) == graph.num_nodes:
        missing = kept = 0
        for u, pairs in enumerate(frame.neighbours):
            for v, bit in pairs:
                if v in adjacency[u]:
                    kept += 1
                else:
                    missing |= bit
        if kept == 2 * graph.num_edges:
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
    search: Search,
    bound: float = inf,
) -> Route | None:
    """Cheapest path over the edges not in ``used``, ties to the smallest id
    sequence, or ``None`` when the source's cost to go exceeds ``bound``:
    with the default bound, when no path exists.

    A reverse search from the destination expands its pending labels in
    increasing order, each label's whole bucket at once, until no label is
    below the source's, which is then its exact cost to go, or none is at
    or below ``bound``, when the source's cost to go is above it.  A tier
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

    ``search`` is a fresh state (:func:`_search`) or the one that earlier
    calls toward ``destination`` on the same ``used`` left behind, under
    ``costs`` or under costs no lower at any node and then repaired by
    :func:`_walk`, and the search resumes where it stopped.  Every
    label then bounds its node's cost to go from above, and every node that
    may still lower a neighbour's label is pending in the bucket of its own
    label, however an earlier call stopped.  So a label below every pending
    label is final, and resuming, at any bound, only makes more labels
    final: the route is the one a fresh search finds.
    """
    neighbours = frame.neighbours
    togo, labels, buckets = search
    while labels and labels[0] < togo[source] and labels[0] <= bound:
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
    left = togo[source]
    if left == inf or left > bound:
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


@cache
def _fidelity(n_h: int, n_l: int, eta_h: float, eta_l: float, link_fidelity: float) -> float:
    """:func:`two_class_fidelity`, memoised for the process.

    A score depends on its arguments alone, so every graph, frame, class
    draw and link fidelity shares the memo, and the router needs none.
    The counts are bounded by the network's size, so the memo grows with
    the noise rates and link fidelities a process meets, not with its
    class draws.
    """
    return two_class_fidelity(n_h, n_l, eta_h, eta_l, link_fidelity)


@cache
def _passing_cost(
    class_costs: tuple[int, int], rates: tuple[float, float], link_fidelity: float,
    threshold: float, count: int,
) -> int:
    """The costliest interior a passing route can have: the largest
    ``c_h * n_h + c_l * n_l`` over the class counts with ``n_h + n_l <=
    count`` that :func:`~qrepnet.fidelity.two_class_fidelity` scores at
    ``threshold`` or above, or -1 when none passes.

    A route's cost is its interior's plus its destination's own, and its
    score depends on its interior's class counts alone, so a route that
    costs more than this plus its destination's cost cannot pass.  The
    closed form falls as either count grows (each factor lies in (0, 1]),
    so the counts that pass are a staircase, walked in O(``count``)
    scores: the most high-quality nodes that pass alone, then, one
    low-quality node more at a time, the most that still pass.  It scores
    through the ``fidelity`` module, not :func:`_fidelity`, whose memo
    keeps route scores only.  Memoised for the process, so it grows with
    the costs, rates, link fidelities and thresholds a process meets, not
    with its draws.
    """
    (c_h, c_l), (eta_h, eta_l) = class_costs, rates

    def passes(n_h: int, n_l: int) -> bool:
        return fidelity.two_class_fidelity(n_h, n_l, eta_h, eta_l, link_fidelity) >= threshold

    n_h = -1
    while n_h < count and passes(n_h + 1, 0):
        n_h += 1
    best = -1
    for n_l in range(count + 1):
        n_h = min(n_h, count - n_l)
        while n_h >= 0 and not passes(n_h, n_l):
            n_h -= 1
        if n_h < 0:
            break
        best = max(best, c_h * n_h + c_l * n_l)
    return best


class _Router(NamedTuple):
    """What serving a batch on one classed graph needs besides its requests.

    ``hops`` belongs to the frame: the route table for transport costs
    that are all equal, which is ``routes`` on such a graph.  The rest
    belong to this graph: ``rates``, ``class_costs`` and ``flags`` are its
    high- and low-quality noise rates and costs and its flag per node,
    from :func:`_two_classes`, which score and bound its routes.
    ``routes`` maps (source, destination, residual mask) to its route,
    ``None`` when there is none, or a mark (see :func:`_beyond`), and
    ``searches`` maps (destination, residual mask) to its
    :class:`Search`.  ``carried`` is the previous graph's ``searches``,
    which this graph may take over after putting the nodes ``lowered``,
    whose costs fell, back into the buckets of their labels.
    ``components`` maps a residual mask to a component label per node.
    """

    classes: tuple[NoiseClass | None, ...]
    frame: Frame
    mapping: WeightMapping
    rates: tuple[float, float]
    class_costs: tuple[int, int]
    flags: tuple[int, ...]
    costs: tuple[int, ...]
    routes: dict
    searches: dict
    carried: dict
    lowered: tuple[int, ...]
    hops: dict
    components: dict


@dataclass
class Counters:
    """Work done by :func:`allocate_batch` and :func:`shortest_path`, and
    the batches spared it.

    ``batches`` counts calls and ``requests`` the requests they served.
    ``no_path`` and ``below_threshold`` count blocked requests by reason.
    ``reused`` counts the batches the trial engine took from a lower
    threshold instead of calling :func:`allocate_batch`, so ``batches +
    reused`` is a study's batch count.  The rest count memo misses, by
    either entry point: ``walks`` the routes walked, ``searches`` the
    reverse searches started afresh, ``carried`` those taken over from the
    previous classed graph and repaired, ``certified`` the residual
    routes answered by the route on the batch's start network, and
    ``bounded`` the misses the threshold's bound answered without a walk
    (see :func:`_beyond`).  A route-table hit counts nothing.
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
    bounded: int = 0


# Counts since the module was imported; readers take differences.
counters = Counters()

# The last router built; the whole route memo of the module.  Every memo
# entry is a pure function of its key, so a stale or shared slot can cost
# work but never change a result.
_last: _Router | None = None


def _router(graph: NetworkGraph, frame: Frame, mapping: WeightMapping) -> _Router:
    """Noise rates, node flags, costs and route table for a classed graph.

    The graph's two noise rates, node flags and costs come from
    :func:`_two_classes`, which rejects an unclassed transport node or a
    third class.  The last router is reused while calls pass the same
    ``classes`` tuple (which it keeps alive), frame and mapping, as
    consecutive batches of one class draw do, at any threshold and link
    fidelity: routes never depend on either.  A mapping is taken to be a
    pure function of the noise rate.  A new router takes state over under
    two rules.  While the frame is the same, it takes the ``hops`` route
    table, which every graph whose transport nodes all cost the same
    routes through (as the unaware mapping's and the all-LQ and all-HQ
    graphs of a sweep do): scaling every cost by one factor keeps the
    order of path costs.  While the mapping is also the same and no
    node's cost rose, as when a sweep upgrades more nodes of one class
    draw, it takes the last graph's searches, each repaired on its first
    use (see :func:`_walk`).  Every other table belongs to one
    graph.
    """
    global _last
    last = _last
    if (
        last is not None
        and last.classes is graph.classes
        and last.frame is frame
        and last.mapping is mapping
    ):
        return last
    rates, class_costs, flags, costs = _two_classes(graph, mapping)
    hops, carried, lowered = {}, {}, ()
    if last is not None and last.frame is frame:
        hops = last.hops
        if last.mapping is mapping and all(map(le, costs, last.costs)):
            carried = last.searches
            lowered = tuple(v for v, (c, was) in enumerate(zip(costs, last.costs)) if c < was)
    routes = hops if len(set(costs) - {0}) == 1 else {}
    _last = _Router(
        graph.classes, frame, mapping, rates, class_costs, flags, costs, routes, {}, carried,
        lowered, hops, {},
    )
    return _last


def _walk(
    router: _Router, source: int, destination: int, used: int, limit: float = inf
) -> Route | int | None:
    """Compute and store the answer for (source, destination, used): the one
    routine that answers a route-table miss, for both entry points.

    An endpoint that is no node of the router's frame is a ``ValueError``,
    checked before any lookup by node.  The search resumes the router's
    search toward ``destination`` on ``used``; failing that, the search the
    previous graph left for that key, repaired for the nodes whose cost
    fell; failing that, a fresh one.  It stops once the route costs more
    than ``limit``, the costliest interior that could pass (see
    :func:`_passing_cost`), plus the destination's own cost; then
    :func:`_beyond` answers without a walk.
    """
    for v in (source, destination):
        if not 0 <= v < len(router.frame.neighbours):
            raise ValueError(f"node {v} is not in the network")
    key = (destination, used)
    search = router.searches.get(key)
    if search is None:
        search = router.carried.pop(key, None)
        if search is None:
            counters.searches += 1
            search = _search(router.frame, destination)
        else:
            # Every label is the cost of a real path, which can only have
            # got cheaper, so it still bounds the cost to go from above.
            # Only a node whose own cost fell can offer its neighbours a
            # cheaper label, so each such node with a finite label goes
            # back into the bucket of its label, and resuming relaxes its
            # neighbours at the new cost: the decrease-only case of
            # dynamic shortest paths (Ramalingam & Reps, J. Algorithms
            # 21(2), 1996).
            counters.carried += 1
            togo, labels, buckets = search
            for u in router.lowered:
                label = togo[u]
                if label < inf:
                    if label not in buckets:
                        buckets[label] = []
                        heappush(labels, label)
                    buckets[label].append(u)
        router.searches[key] = search
    bound = limit + router.costs[destination]
    route = cheapest_route(router.frame, router.costs, source, destination, used, search, bound)
    # No route with labels still pending, or with a finite source label,
    # means the source's cost to go is above the bound, not infinite.
    if route is None and (search.labels or search.togo[source] < inf):
        return _beyond(router, source, destination, used, limit)
    counters.walks += 1
    router.routes[source, destination, used] = route
    return route


def _beyond(router: _Router, source: int, destination: int, used: int, limit: int) -> int | None:
    """Store and return the answer for a key whose route, if any, costs
    more than ``limit`` plus the destination's own cost.

    It is ``None`` when no path joins the endpoints on ``used``, and
    otherwise a mark, the int ``limit``: a route exists and cannot pass at
    any threshold whose bound is ``limit`` or less.  A mark holds for its
    graph's costs, so it never enters the ``hops`` table, which graphs of
    other cost scales share; ``None`` holds for the frame.  Connectivity
    is read from one component labelling per residual mask, which dies
    with the router.
    """
    counters.bounded += 1
    components = router.components.get(used)
    if components is None:
        components = router.components[used] = _components(router.frame, used)
    route = limit if components[source] == components[destination] else None
    if route is None or router.routes is not router.hops:
        router.routes[source, destination, used] = route
    return route


def _components(frame: Frame, used: int) -> list[int]:
    """A label per node, shared by the nodes that the edges not in ``used``
    connect: its component's least node."""
    neighbours = frame.neighbours
    label = [-1] * len(neighbours)
    for root in range(len(label)):
        if label[root] < 0:
            label[root] = root
            queue = [root]
            for u in queue:  # the queue grows while it is read
                for w, bit in neighbours[u]:
                    if label[w] < 0 and not used & bit:
                        label[w] = root
                        queue.append(w)
    return label


def shortest_path(
    graph: NetworkGraph,
    source: int,
    destination: int,
    mapping: WeightMapping,
) -> tuple[int, ...] | None:
    """Minimum-weight path between two nodes, or ``None`` if disconnected.

    It routes through the module's memo of the last classed graph, as
    :func:`allocate_batch` does (see :func:`_router`): a route the memo
    holds for (source, destination, missing edges) is read from it, and a
    miss is routed by :func:`_walk`, on the memo's searches, and adds to
    :data:`counters`.  The endpoints are checked as a
    :class:`RoutingRequest`'s are: one that is no integer is a
    ``TypeError``, equal ones a ``ValueError``, and so is one that is no
    node of ``graph``.
    """
    request = RoutingRequest(source, destination, 1)
    frame, used = network_frame(graph)
    router = _router(graph, frame, mapping)
    key = (request.source, request.destination, used)
    route = router.routes.get(key, _UNROUTED)
    if route.__class__ is int:  # a miss, or a mark, which holds no route
        route = _walk(router, *key)
    return None if route is None else route.path


def path_composition(graph: NetworkGraph, path: Sequence[int]) -> dict[NoiseClass, int]:
    """Count the swapping nodes of each noise class along a path: its
    interior transport nodes, whatever kind its ends are."""
    counts: dict[NoiseClass, int] = {}
    for v in path[1:-1]:
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
    (see :func:`_router`), which :func:`shortest_path` shares, and a miss
    is answered by :func:`_walk`.  So consecutive calls on one graph,
    whatever their thresholds, route each (endpoints, residual network)
    once, and all routes toward one destination on one residual network
    share one resumed reverse search, which a graph whose node costs fell
    from the previous graph's carries over; a call at another link
    fidelity routes through the same table.  A search stops above the
    cost of the costliest route that could pass the threshold
    (:func:`_passing_cost`), so a request whose route would cost more is
    blocked ``BELOW_THRESHOLD`` with no walk and no score, or ``NO_PATH``
    when its endpoints are not connected.  Each routed request is scored
    by its high- and low-quality node counts through the process's score
    memo (:func:`_fidelity`), so each (class counts, noise rates, link
    fidelity) is computed once.  A request that meets consumed edges
    takes its route on ``graph`` itself when none of them lies on it (see
    the module's docstring).  Each call adds to :data:`counters`.  An
    endpoint that is no node of ``graph`` is a ``ValueError``, and so are a
    threshold outside [0, 1] and a link fidelity that
    :func:`~qrepnet.fidelity.werner_parameter` rejects, whatever the batch;
    both are checked before the graph is read.
    """
    if not 0.0 <= fidelity_threshold <= 1.0:
        raise ValueError(f"fidelity threshold must lie in [0, 1], got {fidelity_threshold}")
    werner_parameter(link_fidelity)
    ordered = sorted(requests, key=_theta)
    if list(map(_theta, ordered)) != list(range(1, len(ordered) + 1)):
        raise ValueError("request thetas must be exactly 1..P")

    frame, start = network_frame(graph)
    router = _router(graph, frame, mapping)
    routes = router.routes
    eta_h, eta_l = router.rates
    flag = router.flags.__getitem__
    limit = _passing_cost(router.class_costs, router.rates, link_fidelity, fidelity_threshold,
                          graph.num_transport)
    used = start
    counters.batches += 1
    counters.requests += len(ordered)
    allocations = []
    blocked = no_path = 0
    for request in ordered:
        source, destination = request.source, request.destination
        key = (source, destination, used)
        route = routes.get(key, _UNROUTED)
        # A miss, or a mark (an int) that a lower bound than this one left.
        if route.__class__ is int and route < limit:
            route = routes.get((source, destination, start), _UNROUTED)
            if route.__class__ is int and route < limit:
                route = _walk(router, source, destination, start, limit)
            if used != start:
                # Every path open on ``used`` is open on ``start`` and costs
                # the same there, so the start route is the answer when it
                # is None or avoids every consumed edge, and a start route
                # above the bound leaves only the endpoints' connectivity
                # on ``used`` to find; only otherwise does ``used`` need a
                # search of its own.
                if route.__class__ is int:
                    route = _beyond(router, source, destination, used, limit)
                elif route is None or not route.edges & used:
                    counters.certified += 1
                    routes[key] = route
                else:
                    route = _walk(router, source, destination, used, limit)
        reason = BlockReason.BELOW_THRESHOLD
        if route is None:
            reason = BlockReason.NO_PATH
            no_path += 1
        elif route.__class__ is not int:  # a mark needs no walk and no score
            path = route.path
            # The swapping nodes are the interior ones, whatever kind the ends are.
            inner = path[1:-1]
            n_l = sum(map(flag, inner))
            n_h = len(inner) - n_l
            f = _fidelity(n_h, n_l, eta_h, eta_l, link_fidelity)
            if f >= fidelity_threshold:
                used |= route.edges
                allocations.append(PathAllocation(request, path, f, None))
                continue
        allocations.append(PathAllocation(request, None, None, reason))
        blocked += 1
    counters.no_path += no_path
    counters.below_threshold += blocked - no_path
    return allocations, blocked
