"""Tests for node-weighted shortest paths and sequential batch allocation."""

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

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

from oracles import branch_and_bound_best, node_weight

HQ = NoiseClass("HQ", 0.999)
LQ = NoiseClass("LQ", 0.8)
UNIT = noise_unaware_mapping()


def all_lq(topology, n):
    g = build_network(topology, n)
    return g.with_classes({v: LQ for v in range(g.num_transport)})


def brute_force_best(graph, source, destination, mapping):
    """Minimum (cost, path) over all simple paths, or None if disconnected.

    Exhaustive reference for the router: cost is the exact sum of the
    weights of the nodes entered after the source, ties resolved by the
    lexicographically smallest node id sequence.
    """
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


def exhaustive_best(graph, source, destination, mapping):
    """The branch-and-bound optimum, checked against networkx at n=3."""
    best = branch_and_bound_best(graph, source, destination, mapping)
    if graph.n == 3:
        assert best == brute_force_best(graph, source, destination, mapping)
    return best


# ---------------------------------------------------------------------------
# shortest_path


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


def test_mapping_constructors_validate():
    with pytest.raises(ValueError):
        noise_aware_mapping(0.8, 0.0)
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
    result = stats.chisquare(list(counts.values()))
    assert result.pvalue > 1e-4


def test_shuffle_empty():
    assert shuffle_requests([], np.random.default_rng(0)) == []


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


def reference_batch(graph, requests, mapping, threshold, link_fidelity):
    """Serve a batch with no memo at all: one ``shortest_path`` per request on
    a residual copy of ``graph``, scored by ``two_class_fidelity`` of the
    path's HQ and LQ node counts."""
    residual = graph.copy()
    allocations = []
    blocked = 0
    for r in sorted(requests, key=lambda r: r.theta):
        path = shortest_path(residual, r.source, r.destination, mapping)
        if path is None:
            allocations.append(PathAllocation(r, None, None, BlockReason.NO_PATH))
        else:
            comp = path_composition(graph, path)
            f = two_class_fidelity(
                comp.get(HQ, 0), comp.get(LQ, 0), HQ.eta, LQ.eta, link_fidelity
            )
            if f >= threshold:
                for u, v in itertools.pairwise(path):
                    residual.adjacency[u].discard(v)
                    residual.adjacency[v].discard(u)
                allocations.append(PathAllocation(r, path, f, None))
                continue
            allocations.append(PathAllocation(r, None, None, BlockReason.BELOW_THRESHOLD))
        blocked += 1
    return allocations, blocked


def test_routing_memo_changes_nothing():
    rng = np.random.default_rng(31)
    for topology in (GRID, CYLINDER):
        g = assign_classes(build_network(topology, 3), 0.5, HQ, LQ, rng)
        pairs = [(g.source_id(r), g.destination_id(r)) for r in range(3)]
        reqs = shuffle_requests(pairs, np.random.default_rng(8))
        want = reference_batch(g, reqs, UNIT, 0.0, 0.975)
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
        assert memoised == reference_batch(g, reqs, UNIT, 0.0, 0.975)[0]
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
    assert memoised == reference_batch(cut, reqs, UNIT, 0.0, 0.975)
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
        assert memoised == reference_batch(graph, reqs, mapping, 0.3, link_fidelity)



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
        assert memoised == reference_batch(graph, reqs, mapping, 0.0, 0.975)
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
            cfg, cfg.resolved_xi(), thresholds, class_draws=[0]
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


def test_integer_costs_are_exact_and_keep_integer_weights():
    assert integer_costs((0.0, 1.0, 100.0)) == (0, 1, 100)
    costs = integer_costs((0.0, 1.0, 0.1))
    assert all(isinstance(c, int) for c in costs)
    assert Fraction(costs[2], costs[1]) == Fraction(0.1)
    for bad in (float("inf"), float("nan"), -1.0):
        with pytest.raises(ValueError):
            integer_costs((1.0, bad))


def test_batch_is_deterministic():
    g = assign_classes(build_network(CYLINDER, 5), 0.4, HQ, LQ, np.random.default_rng(4))
    reqs = shuffle_requests(
        [(g.source_id(r), g.destination_id(4 - r)) for r in range(5)],
        np.random.default_rng(6),
    )
    runs = [allocate_batch(g, reqs, UNIT, 0.0, 0.975) for _ in range(3)]
    assert runs[0] == runs[1] == runs[2]
