"""Tests for node-weighted shortest paths and sequential batch allocation."""

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qrepnet import (
    CYLINDER,
    GRID,
    MAPPINGS,
    BlockReason,
    ExperimentConfig,
    NoiseClass,
    PathAllocation,
    RoutingRequest,
    allocate_batch,
    assign_classes,
    build_network,
    noise_aware_mapping,
    noise_unaware_mapping,
    path_composition,
    shortest_path,
    shuffle_requests,
    two_class_fidelity,
)
from qrepnet import experiment, routing
from qrepnet.routing import integer_costs

from oracles import branch_and_bound_best, brute_force_best, node_weight, reference_batch

HQ = NoiseClass("HQ", 0.999)
LQ = NoiseClass("LQ", 0.8)
UNIT = noise_unaware_mapping()


def all_lq(topology, n):
    g = build_network(topology, n)
    return g.with_classes({v: LQ for v in range(g.num_transport)})


def exhaustive_best(graph, source, destination, mapping):
    """The branch-and-bound optimum, checked against networkx at n=3."""
    best = branch_and_bound_best(graph, source, destination, mapping)
    if graph.n == 3:
        assert best == brute_force_best(graph, source, destination, mapping)
    return best


# ---------------------------------------------------------------------------
# shortest_path


def test_node_ids_are_integers_at_both_entry_points(monkeypatch):
    """A float node id raises ``TypeError`` at both entry points, whether or
    not the route memo holds its route.  A numpy integer id is taken as the
    int it equals: its path holds ints and its fidelity is a float, and so
    is the fidelity a later int call reads from the process-wide score memo."""
    g = all_lq(CYLINDER, 3)
    monkeypatch.setattr(routing, "_last", None)
    for _ in range(2):  # a cold memo, then one that holds both routes
        with pytest.raises(TypeError):
            shortest_path(g, 9.0, 12, UNIT)
        with pytest.raises(TypeError):
            allocate_batch(g, [RoutingRequest(10.0, 13, 1)], UNIT, 0.0, 0.975)
        assert shortest_path(g, 9, 12, UNIT)
        assert allocate_batch(g, [RoutingRequest(10, 13, 1)], UNIT, 0.0, 0.975)[0][0].path
    monkeypatch.setattr(routing, "_last", None)
    routing._fidelity.cache_clear()
    assert all(type(v) is int for v in shortest_path(g, np.int64(9), np.int64(12), UNIT))
    request = RoutingRequest(np.int64(10), np.int64(13), 1)
    assert type(request.source) is type(request.destination) is int
    [numpy_ids], _ = allocate_batch(g, [request], UNIT, 0.0, 0.975)
    assert all(type(v) is int for v in numpy_ids.path) and type(numpy_ids.fidelity) is float
    monkeypatch.setattr(routing, "_last", None)
    [ints], _ = allocate_batch(g, [RoutingRequest(10, 13, 1)], UNIT, 0.0, 0.975)
    assert ints == numpy_ids and type(ints.fidelity) is float


def test_unit_weight_paths_have_row_aligned_length():
    g = all_lq(GRID, 5)
    for r1 in range(5):
        for r2 in range(5):
            path = shortest_path(g, g.source_id(r1), g.destination_id(r2), UNIT)
            assert path is not None
            assert len(path) == 5 + abs(r1 - r2) + 2


def test_lexicographic_tie_break_explicit():
    # Both 4-0-1-3-7 and 4-0-2-3-7 cost 3; the id sequence decides.
    g = all_lq(GRID, 2)
    assert shortest_path(g, 4, 7, UNIT) == (4, 0, 1, 3, 7)


def test_noise_aware_routing_detours_around_single_bad_node():
    g = build_network(GRID, 3)
    g = g.with_classes({v: (LQ if v == 1 else HQ) for v in range(g.num_transport)})
    aware = noise_aware_mapping(LQ.eta)
    direct = shortest_path(g, g.source_id(0), g.destination_id(0), UNIT)
    detour = shortest_path(g, g.source_id(0), g.destination_id(0), aware)
    assert direct == (9, 0, 1, 2, 12)
    assert 1 not in detour
    assert detour == (9, 0, 3, 4, 5, 2, 12)


def test_shortest_path_matches_brute_force_on_random_residuals():
    rng = np.random.default_rng(2718)
    base = build_network(GRID, 3)
    for _ in range(20):
        g = assign_classes(base, float(rng.integers(0, 10)) / 9, HQ, LQ, rng)
        edges = list(g.edges())
        for u, v in (edges[i] for i in rng.choice(len(edges), size=6, replace=False)):
            g.adjacency[u].discard(v)
            g.adjacency[v].discard(u)
        for mapping in (UNIT, noise_aware_mapping(LQ.eta), noise_aware_mapping(LQ.eta, 0.1)):
            for row in range(3):
                got = shortest_path(g, g.source_id(row), g.destination_id(row), mapping)
                want = brute_force_best(g, g.source_id(row), g.destination_id(row), mapping)
                if want is None:
                    assert got is None
                else:
                    cost = sum(node_weight(g, v, mapping) for v in got[1:])
                    assert (cost, got) == want


def test_non_integer_weights_break_ties_exactly():
    """Equal-cost paths tie exactly whatever order their weights are summed in.

    With weight 0.1 on low-quality nodes, float sums of the same weights in a
    different order can differ in the last bit; the router must still pick
    the lexicographically smallest of the exactly cheapest paths.
    """
    aware = noise_aware_mapping(LQ.eta, 0.1)
    base = build_network(GRID, 3)
    for seed in range(100):
        rng = random.Random(seed)
        g = base.with_classes(
            {v: (HQ if rng.random() < 0.5 else LQ) for v in range(base.num_transport)}
        )
        for source in map(g.source_id, range(g.n)):
            for destination in map(g.destination_id, range(g.n)):
                got = shortest_path(g, source, destination, aware)
                assert got == brute_force_best(g, source, destination, aware)[1]
                if seed == 9 and (source, destination) == (10, 14):
                    # Float summation ranks (10, 3, 6, 7, 8, 14) first here.
                    assert got == (10, 3, 4, 5, 8, 14)


def test_shortest_path_rejects_equal_endpoints():
    g = all_lq(GRID, 2)
    with pytest.raises(ValueError):
        shortest_path(g, 4, 4, UNIT)


def test_allocate_batch_rejects_equal_endpoints():
    """A request from a node to itself is no request, whether the node is a
    transport node or a tier node; it is rejected before it is served."""
    g = all_lq(GRID, 3)
    for node in (4, 9):
        with pytest.raises(ValueError, match="source and destination must differ"):
            allocate_batch(g, [RoutingRequest(node, node, 1)], UNIT, 0.0, 0.975)


@pytest.mark.parametrize("source, destination, node", [(-1, 4, -1), (4, 99, 99)])
def test_endpoints_outside_the_network_are_rejected(source, destination, node):
    """An endpoint id must name a node of the graph: a negative id must not
    index from the end of the node list, and a large one must not fail inside
    the search."""
    g = all_lq(GRID, 3)
    message = f"node {node} is not in the network"
    with pytest.raises(ValueError, match=message):
        shortest_path(g, source, destination, UNIT)
    with pytest.raises(ValueError, match=message):
        allocate_batch(g, [RoutingRequest(source, destination, 1)], UNIT, 0.0, 0.975)


def test_shortest_path_requires_classes():
    g = build_network(GRID, 2)
    with pytest.raises(ValueError):
        shortest_path(g, 4, 7, UNIT)


def route_one(graph):
    return shortest_path(graph, 4, 7, UNIT)


def serve_one(graph):
    return allocate_batch(graph, [RoutingRequest(4, 7, 1)], UNIT, 0.0, 0.975)


@pytest.mark.parametrize("entry", [route_one, serve_one])
@pytest.mark.parametrize("assignment, message", [
    ({0: HQ, 1: LQ, 2: LQ}, "transport node 3 has no noise class"),
    ({0: HQ, 1: LQ, 2: NoiseClass("MQ", 0.9), 3: LQ}, "two transport classes at most"),
])
def test_the_router_takes_two_classes_at_most(entry, assignment, message):
    """Both routing entry points reject an unclassed transport node and a
    third transport class; a class equal to another by value is the same
    class."""
    g = build_network(GRID, 2)
    with pytest.raises(ValueError, match=message):
        entry(g.with_classes(assignment))
    assert entry(g.with_classes({0: HQ, 1: LQ, 2: NoiseClass("LQ", 0.8), 3: HQ}))


@pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
def test_a_weight_that_is_not_positive_and_finite_is_rejected(bad):
    """Both entry points reject a mapping that weighs the low-quality class
    zero, negative, infinite or NaN, the last of which fails every ordered
    comparison."""
    g = build_network(GRID, 2).with_classes({0: HQ, 1: LQ, 2: LQ, 3: HQ})

    def mapping(eta):
        return bad if eta == LQ.eta else 1.0

    message = "node weight must be positive and finite"
    with pytest.raises(ValueError, match=message):
        shortest_path(g, 4, 7, mapping)
    with pytest.raises(ValueError, match=message):
        allocate_batch(g, [RoutingRequest(4, 7, 1)], mapping, 0.0, 0.975)


@pytest.mark.parametrize("threshold", [float("nan"), -0.1, 1.5, float("inf")])
def test_allocate_batch_rejects_a_threshold_outside_the_unit_interval(threshold):
    """A threshold is a fidelity: NaN, infinity or one above 1 would block
    every request, and one below 0 would pass every route."""
    g = all_lq(GRID, 2)
    with pytest.raises(ValueError, match=r"fidelity threshold must lie in \[0, 1\]"):
        allocate_batch(g, [RoutingRequest(4, 7, 1)], UNIT, threshold, 0.975)


@pytest.mark.parametrize("batch", ["empty", "no_path", "routed"])
def test_allocate_batch_checks_the_link_fidelity_whatever_the_batch(batch):
    """An empty batch, and one whose every request is blocked for want of a
    path, score no route, yet reject a link fidelity outside (0.25, 1] as a
    routed batch does."""
    g = all_lq(GRID, 2)
    requests = [] if batch == "empty" else [RoutingRequest(4, 7, 1)]
    if batch == "no_path":
        # Cut source 4 off from its row's first transport node.
        g.adjacency[4].discard(0)
        g.adjacency[0].discard(4)
        assert allocate_batch(g, requests, UNIT, 0.0, 0.975)[0][0].blocked is BlockReason.NO_PATH
    with pytest.raises(ValueError, match=r"link fidelity must lie in \(0.25, 1\], got 7.0"):
        allocate_batch(g, requests, UNIT, 0.0, 7.0)


@pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
def test_mapping_constructors_validate(bad):
    """The aware mapping's weight must be positive and finite when it is
    built, so a NaN, which fails every ordered comparison, fails too."""
    with pytest.raises(ValueError, match="aware weight must be positive and finite"):
        noise_aware_mapping(0.8, bad)
    assert noise_aware_mapping(0.8, 50.0)(0.8) == 50.0
    assert noise_aware_mapping(0.8)(0.999) == 1.0


# ---------------------------------------------------------------------------
# shuffle_requests


def test_shuffle_assigns_thetas_in_establishment_order():
    pairs = [(10, 20), (11, 21), (12, 22)]
    reqs = shuffle_requests(pairs, np.random.default_rng(5))
    assert [r.theta for r in reqs] == [1, 2, 3]
    assert sorted((r.source, r.destination) for r in reqs) == pairs


def test_shuffle_is_reproducible():
    pairs = [(0, 1), (2, 3), (4, 5), (6, 7)]
    a = shuffle_requests(pairs, np.random.default_rng(123))
    b = shuffle_requests(pairs, np.random.default_rng(123))
    assert a == b


def test_shuffle_is_uniform_over_orders():
    pairs = [(0, 1), (2, 3), (4, 5)]
    rng = np.random.default_rng(777)
    counts = {p: 0 for p in itertools.permutations(pairs)}
    for _ in range(3000):
        counts[tuple((r.source, r.destination) for r in shuffle_requests(pairs, rng))] += 1
    # Pearson's statistic against 500 draws an order, below the value that
    # 5 degrees of freedom exceed with probability 1e-4.
    assert sum((c - 500) ** 2 / 500 for c in counts.values()) < 25.7448


def test_shuffle_empty():
    assert shuffle_requests([], np.random.default_rng(0)) == []


class ReplayedPermutations:
    """An rng that is no numpy ``Generator``: its ``permutation(n)``
    returns a list of ints, replayed from a ``Generator`` of the same seed."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def permutation(self, n):
        return [int(i) for i in self._rng.permutation(n)]


def test_shuffle_and_assign_take_any_rng_with_a_permutation():
    """``shuffle_requests`` and ``assign_classes`` only call
    ``rng.permutation``, so any object whose ``permutation(n)`` returns a
    list of ints serves, and one that replays a ``Generator`` gives the
    ``Generator``'s establishment orders and classes."""
    base = build_network(CYLINDER, 4)
    pairs = [(base.source_id(r), base.destination_id(3 - r)) for r in range(4)]
    assert isinstance(ReplayedPermutations(0).permutation(4), list)
    for seed in range(5):
        stub, rng = ReplayedPermutations(seed), np.random.default_rng(seed)
        assert shuffle_requests(pairs, stub) == shuffle_requests(pairs, rng)
        for xi in (0.0, 0.3, 0.75, 1.0):
            got = assign_classes(base, xi, HQ, LQ, stub)
            assert got.classes == assign_classes(base, xi, HQ, LQ, rng).classes


# ---------------------------------------------------------------------------
# allocate_batch


def grid2_blocking_case():
    """Two crossing requests on the 2x2 grid; the second finds no path.

    The first request routes 4-0-1-3-7 and consumes those four edges,
    which leaves node 1 reachable only from its destination tier, so the
    5 -> 6 request is disconnected.  Verified by hand against the fixed
    id layout.
    """
    g = all_lq(GRID, 2)
    reqs = [RoutingRequest(4, 7, 1), RoutingRequest(5, 6, 2)]
    return g, reqs


def test_hand_verified_no_path_block():
    g, reqs = grid2_blocking_case()
    allocations, blocked = allocate_batch(g, reqs, UNIT, 0.0, 0.975)
    assert blocked == 1
    assert allocations[0].path == (4, 0, 1, 3, 7)
    assert allocations[0].blocked is None
    assert allocations[1].path is None
    assert allocations[1].blocked is BlockReason.NO_PATH


def test_blocked_requests_consume_nothing():
    g = all_lq(GRID, 2)
    f3 = two_class_fidelity(0, 3, 0.999, 0.8, 0.975)
    f2 = two_class_fidelity(0, 2, 0.999, 0.8, 0.975)
    assert f3 < 0.4 < f2
    reqs = [RoutingRequest(4, 7, 1), RoutingRequest(5, 7, 2)]
    allocations, blocked = allocate_batch(g, reqs, UNIT, 0.4, 0.975)
    # The first request's only candidates cross three repeaters and fall
    # under the threshold; had it consumed its edges, the second request
    # could not use 3-7.
    assert allocations[0].blocked is BlockReason.BELOW_THRESHOLD
    assert allocations[1].path == (5, 2, 3, 7)
    assert allocations[1].fidelity == f2
    assert blocked == 1


def test_served_in_theta_order_not_list_order():
    g, reqs = grid2_blocking_case()
    allocations, _ = allocate_batch(g, list(reversed(reqs)), UNIT, 0.0, 0.975)
    assert [a.request.theta for a in allocations] == [1, 2]
    assert allocations[0].path == (4, 0, 1, 3, 7)


def test_thetas_must_be_dense_from_one():
    g = all_lq(GRID, 2)
    for thetas in ([1, 3], [0, 1], [2, 2]):
        reqs = [RoutingRequest(4, 7, thetas[0]), RoutingRequest(5, 6, thetas[1])]
        with pytest.raises(ValueError):
            allocate_batch(g, reqs, UNIT, 0.0, 0.975)


def test_allocated_paths_are_edge_disjoint():
    rng = np.random.default_rng(99)
    for topology in (GRID, CYLINDER):
        g = assign_classes(build_network(topology, 5), 0.4, HQ, LQ, rng)
        perm = rng.permutation(5)
        pairs = [(g.source_id(r), g.destination_id(int(perm[r]))) for r in range(5)]
        reqs = shuffle_requests(pairs, rng)
        allocations, _ = allocate_batch(g, reqs, UNIT, 0.0, 0.975)
        used = set()
        for a in allocations:
            if not a.allocated:
                continue
            assert len(set(a.path)) == len(a.path)
            for u, v in itertools.pairwise(a.path):
                edge = (u, v) if u < v else (v, u)
                assert edge not in used
                used.add(edge)


def test_batch_does_not_mutate_input_graph():
    g, reqs = grid2_blocking_case()
    before = {v: set(nbrs) for v, nbrs in g.adjacency.items()}
    allocate_batch(g, reqs, UNIT, 0.0, 0.975)
    assert g.adjacency == before


def test_allocation_fidelity_matches_composition():
    g = assign_classes(build_network(CYLINDER, 5), 0.52, HQ, LQ, np.random.default_rng(1))
    reqs = shuffle_requests(
        [(g.source_id(r), g.destination_id(r)) for r in range(5)],
        np.random.default_rng(2),
    )
    allocations, _ = allocate_batch(g, reqs, UNIT, 0.0, 0.975)
    for a in allocations:
        if a.allocated:
            comp = path_composition(g, a.path)
            n_h = comp.get(HQ, 0)
            n_l = comp.get(LQ, 0)
            assert n_h + n_l == len(a.path) - 2
            assert a.fidelity == pytest.approx(
                two_class_fidelity(n_h, n_l, 0.999, 0.8, 0.975), abs=1e-12
            )


def test_a_route_is_scored_by_its_swapping_nodes_whatever_its_ends():
    """A route swaps at its interior nodes only, so a transport endpoint
    is no swap: on an all-HQ 3x3 grid the route 0 -> 8 has five nodes and
    three swaps, and scores two_class_fidelity(3, 0, ...), in the batch,
    in its composition and in the memo-free reference alike."""
    hq = NoiseClass("HQ", 0.99)
    g = build_network(GRID, 3)
    g = g.with_classes({v: hq for v in range(g.num_transport)})
    request = RoutingRequest(0, 8, 1)
    [a], blocked = allocate_batch(g, [request], UNIT, 0.0, 0.975)
    assert (a.path, blocked) == ((0, 1, 2, 5, 8), 0)
    assert a.fidelity == two_class_fidelity(3, 0, 0.99, 0.99, 0.975)
    assert path_composition(g, a.path) == {hq: 3}
    assert reference_batch(g, [request], UNIT, 0.0, 0.975, hq, LQ) == ([a], 0)


def test_routing_memo_changes_nothing():
    rng = np.random.default_rng(31)
    for topology in (GRID, CYLINDER):
        g = assign_classes(build_network(topology, 3), 0.5, HQ, LQ, rng)
        pairs = [(g.source_id(r), g.destination_id(r)) for r in range(3)]
        reqs = shuffle_requests(pairs, np.random.default_rng(8))
        want = reference_batch(g, reqs, UNIT, 0.0, 0.975, HQ, LQ)
        # The second call on the same graph reads its routes from the
        # route table and its scores from the score memo.
        assert allocate_batch(g, reqs, UNIT, 0.0, 0.975) == want
        assert allocate_batch(g, reqs, UNIT, 0.0, 0.975) == want
        assert routing._last.routes


def test_shared_cache_is_safe_across_topologies():
    # Grid(3) and Cylinder(3) share node ids and node costs; the memo must
    # still route each on its own adjacency.
    results = {}
    for topology in (GRID, CYLINDER):
        g = all_lq(topology, 3)
        reqs = [RoutingRequest(g.source_id(0), g.destination_id(2), 1)]
        memoised, _ = allocate_batch(g, reqs, UNIT, 0.0, 0.975)
        assert memoised == reference_batch(g, reqs, UNIT, 0.0, 0.975, HQ, LQ)[0]
        results[topology] = memoised[0].path
    # The wrap edge gives the cylinder a strictly shorter crossing.
    assert len(results[CYLINDER]) < len(results[GRID])


def test_routing_memo_is_keyed_on_the_input_edge_set():
    """A route memoised on the full grid must not be reused on a graph lacking its edges."""
    g = all_lq(GRID, 3)
    reqs = [RoutingRequest(g.source_id(0), g.destination_id(0), 1)]
    full, _ = allocate_batch(g, reqs, UNIT, 0.0, 0.975)
    assert full[0].path == (9, 0, 1, 2, 12)
    cut = g.copy()  # same classes tuple, so the same memo serves it
    cut.adjacency[0].discard(1)
    cut.adjacency[1].discard(0)
    memoised = allocate_batch(cut, reqs, UNIT, 0.0, 0.975)
    assert memoised == reference_batch(cut, reqs, UNIT, 0.0, 0.975, HQ, LQ)
    assert memoised[0][0].path == (9, 0, 3, 4, 1, 2, 12)


def test_shared_cache_follows_mapping_classes_and_link_fidelity():
    """While the mapping, the classes or the link fidelity change between
    calls, every call gives the results of memo-free routing."""
    rng = np.random.default_rng(77)
    g = assign_classes(build_network(GRID, 4), 0.5, HQ, LQ, rng)
    other = assign_classes(g, 0.25, HQ, LQ, rng)
    pairs = [(g.source_id(r), g.destination_id(3 - r)) for r in range(4)]
    reqs = shuffle_requests(pairs, np.random.default_rng(5))
    aware = noise_aware_mapping(LQ.eta, 2.5)
    for graph, mapping, link_fidelity in [
        (g, UNIT, 0.975), (g, aware, 0.975), (other, aware, 0.975),
        (other, aware, 0.99), (g, UNIT, 0.975), (other, UNIT, 0.99),
    ]:
        memoised = allocate_batch(graph, reqs, mapping, 0.3, link_fidelity)
        assert memoised == reference_batch(graph, reqs, mapping, 0.3, link_fidelity, HQ, LQ)



def test_another_link_fidelity_reuses_the_graphs_routes():
    """Routes depend on node costs only, so a second batch on one mixed
    aware graph at another link fidelity walks no route, and each call
    scores its allocated paths at its own link fidelity."""
    g = assign_classes(build_network(CYLINDER, 5), 0.48, HQ, LQ, np.random.default_rng(3))
    pairs = [(g.source_id(r), g.destination_id((r + 2) % 5)) for r in range(5)]
    reqs = shuffle_requests(pairs, np.random.default_rng(4))
    aware = noise_aware_mapping(LQ.eta)
    routing._last = None
    walks = []
    paths = []
    for link_fidelity in (0.975, 0.99):
        before = routing.counters.walks
        allocations, _ = allocate_batch(g, reqs, aware, 0.0, link_fidelity)
        walks.append(routing.counters.walks - before)
        paths.append([a.path for a in allocations])
        for a in allocations:
            assert a.allocated
            counts = path_composition(g, a.path)
            assert a.fidelity == two_class_fidelity(
                counts.get(HQ, 0), counts.get(LQ, 0), HQ.eta, LQ.eta, link_fidelity
            )
    assert walks[0] > 0 and walks[1] == 0
    assert paths[0] == paths[1]
    assert {HQ, LQ} <= set(g.classes)


def test_shortest_path_and_allocate_batch_share_one_route_memo():
    """``shortest_path`` routes through the memo that ``allocate_batch``
    reads: a batch after it on the same mixed aware graph walks no route and
    allocates the same path.  A residual copy of the graph (same classes
    tuple) is one more key of that memo: it walks once, matches the
    exhaustive oracle, and a repeated call reads the route table."""
    g = assign_classes(build_network(CYLINDER, 5), 0.48, HQ, LQ, np.random.default_rng(3))
    assert {HQ, LQ} <= set(g.classes)
    aware = noise_aware_mapping(LQ.eta)
    s, d = g.source_id(0), g.destination_id(3)
    routing._last = None
    path = shortest_path(g, s, d, aware)
    assert path is not None
    before = routing.counters.walks
    [allocation], _ = allocate_batch(g, [RoutingRequest(s, d, 1)], aware, 0.0, 0.975)
    assert routing.counters.walks == before
    assert allocation.path == path

    residual = without_edges(g, list(itertools.pairwise(path))[1:2])
    assert residual.classes is g.classes
    before = routing.counters.walks
    got = shortest_path(residual, s, d, aware)
    assert routing.counters.walks == before + 1
    want = branch_and_bound_best(residual, s, d, aware)
    assert got == (None if want is None else want[1]) != path
    assert shortest_path(residual, s, d, aware) == got
    assert routing.counters.walks == before + 1


def test_uniform_cost_graphs_share_one_route_table():
    """Graphs whose transport nodes all cost the same share their routes
    whatever the mapping and the cost scale, also across a graph with mixed
    costs: once one of them has served the batch, the others walk no route,
    and every call gives the results of memo-free routing."""
    rng = np.random.default_rng(12)
    lq = all_lq(CYLINDER, 4)
    hq = lq.with_classes({v: HQ for v in range(lq.num_transport)})
    mixed = assign_classes(lq, 0.5, HQ, LQ, rng)
    pairs = [(lq.source_id(r), lq.destination_id(3 - r)) for r in range(4)]
    reqs = shuffle_requests(pairs, np.random.default_rng(5))
    aware = noise_aware_mapping(LQ.eta, 2.5)
    routing._last = None
    walked = []
    for graph, mapping in [
        (lq, UNIT), (lq, aware), (mixed, aware), (hq, aware),
        (lq, noise_aware_mapping(LQ.eta, 0.1)), (hq, UNIT),
    ]:
        counted = routing.counters
        before = counted.walks, counted.certified
        memoised = allocate_batch(graph, reqs, mapping, 0.0, 0.975)
        assert memoised == reference_batch(graph, reqs, mapping, 0.0, 0.975, HQ, LQ)
        walked.append((counted.walks - before[0], counted.certified - before[1]))
    # The first request walks its route on the start network, and so does
    # each of the three later ones, on a residual network.  One of those
    # start routes avoids the consumed edges and is the answer; the other
    # two cross one and walk a residual route too: 1 + 3 + 2 walks.
    assert walked[0] == (6, 1) and walked[2][0] > 0
    assert walked[1] == walked[3] == walked[4] == walked[5] == (0, 0)

WEIGHTS = (
    UNIT,
    noise_aware_mapping(LQ.eta),
    noise_aware_mapping(LQ.eta, 0.1),
    noise_aware_mapping(LQ.eta, 2.5),
)


@st.composite
def residual_networks(draw):
    """Copies of one random classed 3x3, 4x4 or 5x5 grid or cylinder, each
    lacking a random set of edges, none at all included; the copies share
    one classes tuple.  At n=5, the width the studies default to, the
    branch and bound is the oracle; at 3x3 networkx checks it.
    """
    base = build_network(
        draw(st.sampled_from((GRID, CYLINDER))), draw(st.sampled_from((3, 4, 5)))
    )
    hq = draw(st.lists(st.booleans(), min_size=base.num_transport, max_size=base.num_transport))
    classed = base.with_classes({v: HQ if h else LQ for v, h in enumerate(hq)})
    edges = list(classed.edges())
    cut_sets = st.sets(st.sampled_from(edges), max_size=len(edges) // 2)
    residuals = []
    for cut in draw(st.lists(cut_sets, min_size=1, max_size=3)):
        residual = classed.copy()
        for u, v in cut:
            residual.adjacency[u].discard(v)
            residual.adjacency[v].discard(u)
        residuals.append(residual)
    return residuals


@settings(max_examples=60)
@given(residual_networks(), st.sampled_from(WEIGHTS), st.data())
def test_shared_searches_match_brute_force(residuals, mapping, data):
    """Sources served in a random order through one shared reverse search per
    (destination, residual network) each get the exhaustive optimum.

    Every request is a batch of its own on one residual copy, and the copies
    share a classes tuple, so one router serves them all and each request
    toward a (destination, residual) resumes the search earlier ones left.
    """
    graph = residuals[0]
    destination_ids = [graph.destination_id(r) for r in range(graph.n)]
    destinations = data.draw(st.sets(st.sampled_from(destination_ids), min_size=1, max_size=2))
    queries = [
        (residual, source, destination)
        for residual in range(len(residuals))
        for source in map(graph.source_id, range(graph.n))
        for destination in destinations
    ]
    routing._last = None
    for residual, source, destination in data.draw(st.permutations(queries)):
        g = residuals[residual]
        [allocation], _ = allocate_batch(
            g, [RoutingRequest(source, destination, 1)], mapping, 0.0, 0.975
        )
        want = exhaustive_best(g, source, destination, mapping)
        assert allocation.path == (None if want is None else want[1])
    masks = {routing.network_frame(g)[1] for g in residuals}
    assert set(routing._last.searches) == {(d, used) for d in destinations for used in masks}


@settings(max_examples=30)
@given(residual_networks(), st.sampled_from(WEIGHTS), st.data())
def test_repaired_searches_match_brute_force(residuals, mapping, data):
    """Searches carried to a graph whose node costs fell route like fresh
    ones, and a graph whose costs rose searches afresh.

    Requests served on residual copies of one classed graph leave searches
    behind.  The copies are then served again with a random non-empty set
    of nodes switched to the cheaper class, in one new classes tuple, so no
    cost rises and the new graph takes the searches over, putting the nodes
    whose cost fell back into their buckets.  Last the old classes come
    back, which raises the switched nodes' costs whenever the classes weigh
    differently.  Every route of every phase must be the exhaustive optimum.
    """
    graph = residuals[0]
    weight = {cls: mapping(cls.eta) for cls in (HQ, LQ)}
    cheap = min((HQ, LQ), key=weight.__getitem__)
    switchable = [v for v in range(graph.num_transport) if graph.classes[v] is not cheap]
    assume(switchable)
    switched = data.draw(st.sets(st.sampled_from(switchable), min_size=1))
    classes = tuple(cheap if v in switched else cls for v, cls in enumerate(graph.classes))
    lowered = [replace(g, classes=classes) for g in residuals]
    destination = data.draw(st.sampled_from([graph.destination_id(r) for r in range(graph.n)]))
    sources = [graph.source_id(r) for r in range(graph.n)]
    queries = [(i, source) for i in range(len(residuals)) for source in sources]
    costs_move = weight[HQ] != weight[LQ]
    routing._last = None
    for phase, copies in enumerate((residuals, lowered, residuals)):
        before = routing._last
        held = [] if before is None else list(before.searches.values())
        for i, source in data.draw(st.permutations(queries)):
            g = copies[i]
            [allocation], _ = allocate_batch(
                g, [RoutingRequest(source, destination, 1)], mapping, 0.0, 0.975
            )
            want = exhaustive_best(g, source, destination, mapping)
            assert allocation.path == (None if want is None else want[1])
        router = routing._last
        if phase == 1:
            # A class dropping out of the palette may rescale every cost.
            assert switched <= set(router.lowered) if costs_move else not router.lowered
        if phase:
            taken = [any(search is h for h in held) for search in router.searches.values()]
            assert all(taken) if phase == 1 or not costs_move else not any(taken)


def without_edges(graph, edges):
    residual = graph.copy()
    for u, v in edges:
        residual.adjacency[u].discard(v)
        residual.adjacency[v].discard(u)
    return residual


@settings(max_examples=60)
@given(residual_networks(), st.sampled_from(WEIGHTS), st.data())
def test_a_start_route_that_avoids_the_consumed_edges_is_the_residual_route(
    residuals, mapping, data
):
    """A route on a start network that no consumed edge lies on is the
    exhaustive optimum on the residual network, and a start network with no
    route leaves none on the residual; a batch whose second request meets
    the edges its first consumed routes as the oracle does either way."""
    start = residuals[0]
    sources = [start.source_id(r) for r in range(start.n)]
    destinations = [start.destination_id(r) for r in range(start.n)]
    source, other = data.draw(st.permutations(sources))[:2]
    destination, far = data.draw(st.permutations(destinations))[:2]
    consumed = data.draw(st.sets(st.sampled_from(list(start.edges()))))
    residual = without_edges(start, consumed)
    path = shortest_path(start, source, destination, mapping)
    want = exhaustive_best(residual, source, destination, mapping)
    if path is None:
        assert want is None
    elif not {frozenset(e) for e in itertools.pairwise(path)} & set(map(frozenset, consumed)):
        assert want[1] == path

    routing._last = None
    first, second = RoutingRequest(other, far, 1), RoutingRequest(source, destination, 2)
    [taken, allocation], _ = allocate_batch(start, [first, second], mapping, 0.0, 0.975)
    met = without_edges(start, itertools.pairwise(taken.path or ()))
    want = exhaustive_best(met, source, destination, mapping)
    assert allocation.path == (None if want is None else want[1])


def test_a_blocking_class_draw_routes_as_the_oracle_does():
    """Class draw 0 of the default ``blocking`` study (cylinder, n=5, both
    mappings, all 26 xi, every default threshold, 5 pairings: 780 batches
    through the trial engine, those a higher threshold reuses included) matches the exhaustive oracle request by
    request, on the residual network each request meets: the oracle's path
    is allocated when its score reaches the threshold, ``BELOW_THRESHOLD``
    is reported when it does not, and ``NO_PATH`` exactly when there is no
    path.  The oracle runs once per (node costs, endpoints, residual)."""
    thresholds = experiment.DEFAULT_F_BAR_VALUES
    best = {}
    batches = 0
    reasons = set()
    routing._last = None
    for mapping in MAPPINGS:
        cfg = ExperimentConfig(topology=CYLINDER, mapping=mapping)
        weights = cfg.weight_mapping()
        hq, lq = cfg.hq_class(), cfg.lq_class()
        for _, j, _, graph, allocations, blocked in experiment._sweep(
            cfg, thresholds, class_draws=[0]
        ):
            batches += 1
            costs = tuple(node_weight(graph, v, weights) for v in range(graph.num_transport))
            residual, cut = graph.copy(), frozenset()
            for allocation in allocations:
                request = allocation.request
                key = (costs, request.source, request.destination, cut)
                if key not in best:
                    found = branch_and_bound_best(
                        residual, request.source, request.destination, weights
                    )
                    best[key] = None if found is None else found[1]
                path = best[key]
                if path is None:
                    assert allocation.blocked is BlockReason.NO_PATH
                    continue
                comp = path_composition(graph, path)
                score = two_class_fidelity(
                    comp.get(hq, 0), comp.get(lq, 0), hq.eta, lq.eta, cfg.link_fidelity
                )
                if score < thresholds[j]:
                    assert allocation.blocked is BlockReason.BELOW_THRESHOLD
                    continue
                assert allocation == PathAllocation(request, path, score, None)
                for u, v in itertools.pairwise(path):
                    residual.adjacency[u].discard(v)
                    residual.adjacency[v].discard(u)
                    cut |= {frozenset((u, v))}
            assert blocked == sum(a.blocked is not None for a in allocations)
            reasons |= {a.blocked for a in allocations}
    assert batches == 2 * 26 * len(thresholds) * 5
    assert reasons == {None, BlockReason.NO_PATH, BlockReason.BELOW_THRESHOLD}


def test_routing_rejects_edges_outside_the_base_network():
    g = all_lq(GRID, 2)
    g.adjacency[4].add(7)
    g.adjacency[7].add(4)
    with pytest.raises(ValueError, match="subgraph"):
        shortest_path(g, 4, 7, UNIT)


def test_an_edge_that_one_end_alone_lists_is_rejected():
    """An adjacency must list each edge from both of its ends: one that
    lists an edge from one end only is no network, and neither entry point
    reads it as a network that lacks the edge."""
    g = all_lq(GRID, 3)
    cut = g.copy()
    cut.adjacency[0].discard(1)
    with pytest.raises(ValueError, match="subgraph"):
        shortest_path(cut, g.source_id(0), g.destination_id(0), UNIT)
    with pytest.raises(ValueError, match="subgraph"):
        allocate_batch(
            cut, [RoutingRequest(g.source_id(0), g.destination_id(0), 1)], UNIT, 0.0, 0.975
        )


def test_integer_costs_are_exact_and_keep_integer_weights():
    assert integer_costs((0.0, 1.0, 100.0)) == (0, 1, 100)
    costs = integer_costs((0.0, 1.0, 0.1))
    assert all(isinstance(c, int) for c in costs)
    assert Fraction(costs[2], costs[1]) == Fraction(0.1)


def test_batch_is_deterministic():
    g = assign_classes(build_network(CYLINDER, 5), 0.4, HQ, LQ, np.random.default_rng(4))
    reqs = shuffle_requests(
        [(g.source_id(r), g.destination_id(4 - r)) for r in range(5)],
        np.random.default_rng(6),
    )
    runs = [allocate_batch(g, reqs, UNIT, 0.0, 0.975) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]
