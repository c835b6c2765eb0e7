"""Exhaustive routing oracles shared by the test modules.

They share no code with :mod:`qrepnet.routing`, whose result types alone
they build: costs are exact fractions of the mapping's weights, and the
best path is found by enumerating simple paths, not by a shortest-path
search.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

import networkx as nx

from qrepnet.fidelity import two_class_fidelity
from qrepnet.routing import BlockReason, PathAllocation
from qrepnet.topology import NodeKind


def node_weight(graph, v, mapping):
    """The exact weight of a node, as a fraction, so path costs sum without rounding."""
    if graph.kinds[v] is not NodeKind.TRANSPORT:
        return Fraction(0)
    return Fraction(mapping(graph.classes[v].eta))


def branch_and_bound_best(graph, source, destination, mapping):
    """Minimum (cost, path) over all simple paths, or None if disconnected.

    Cost is the exact sum of the weights of the nodes entered after the
    source, ties resolved by the lexicographically smallest node id
    sequence: the documented routing rule.  Fast enough for n=5, it is a
    depth-first search over simple paths, neighbours in increasing id
    order, so complete paths come in lexicographic order.
    Costs are exact: the ``Fraction`` weights are summed as integers over
    their common denominator.  A path from a node ``hops`` edges from the
    destination (by breadth-first search) enters ``hops - 1`` transport
    nodes before it, since tier nodes are leaves, so a partial path is
    pruned once its cost plus that many least transport weights reaches the
    best cost found.  Pruning on equality is safe, because a later path of
    equal cost is lexicographically larger.
    """
    exact = [node_weight(graph, v, mapping) for v in range(graph.num_nodes)]
    scale = math.lcm(*(w.denominator for w in exact))
    weights = [int(w * scale) for w in exact]
    least = min(weights[: graph.num_transport])
    hops = {destination: 0}
    queue = [destination]
    for v in queue:  # the queue grows while it is read
        for w in graph.adjacency[v]:
            if w not in hops:
                hops[w] = hops[v] + 1
                queue.append(w)
    if source not in hops:
        return None
    ahead = {v: max(h - 1, 0) * least for v, h in hops.items()}
    onward = {v: sorted(graph.adjacency[v]) for v in hops}
    path = [source]
    on_path = {source}
    best = None

    def extend(cost):
        nonlocal best
        v = path[-1]
        if v == destination:
            best = (cost, tuple(path))
            return
        for w in onward[v]:
            if w in on_path:
                continue
            through = cost + weights[w]
            if best is not None and through + ahead[w] >= best[0]:
                continue
            path.append(w)
            on_path.add(w)
            extend(through)
            on_path.remove(w)
            path.pop()

    extend(0)
    return None if best is None else (Fraction(best[0], scale), best[1])


def brute_force_best(graph, source, destination, mapping):
    """The same optimum as :func:`branch_and_bound_best`, by networkx's
    enumeration of every simple path; slow, so for n=3 only."""
    G = nx.Graph(list(graph.edges()))
    if source not in G or destination not in G or not nx.has_path(G, source, destination):
        return None
    best = None
    for path in nx.all_simple_paths(G, source, destination):
        cost = sum(node_weight(graph, v, mapping) for v in path[1:])
        key = (cost, tuple(path))
        if best is None or key < best:
            best = key
    return best


def reference_batch(graph, requests, mapping, threshold, link_fidelity, hq, lq):
    """Serve a batch as :func:`qrepnet.allocate_batch` documents it, with no
    memo: in establishment order, each request takes its
    :func:`branch_and_bound_best` path on a residual copy of ``graph`` and
    is scored by ``two_class_fidelity`` of the path's ``hq`` and ``lq``
    interior transport nodes, the ones that swap.  Returns the allocations
    and the number blocked."""
    residual = graph.copy()
    allocations = []
    for r in sorted(requests, key=lambda r: r.theta):
        found = branch_and_bound_best(residual, r.source, r.destination, mapping)
        if found is None:
            allocations.append(PathAllocation(r, None, None, BlockReason.NO_PATH))
            continue
        path = found[1]
        counts = Counter(
            graph.classes[v] for v in path[1:-1] if graph.kinds[v] is NodeKind.TRANSPORT
        )
        f = two_class_fidelity(counts[hq], counts[lq], hq.eta, lq.eta, link_fidelity)
        if f < threshold:
            allocations.append(PathAllocation(r, None, None, BlockReason.BELOW_THRESHOLD))
            continue
        for u, v in itertools.pairwise(path):
            residual.adjacency[u].discard(v)
            residual.adjacency[v].discard(u)
        allocations.append(PathAllocation(r, path, f, None))
    return allocations, sum(not a.allocated for a in allocations)
