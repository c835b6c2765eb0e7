"""Tests for node-weighted shortest paths and sequential batch allocation."""

import itertools
import random
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest
from scipy import stats

from qrepnet import (
    CYLINDER,
    GRID,
    BlockReason,
    NoiseClass,
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
from qrepnet.routing import integer_costs
from qrepnet.topology import NodeKind

HQ = NoiseClass("HQ", 0.999)
LQ = NoiseClass("LQ", 0.8)
UNIT = noise_unaware_mapping()


def all_lq(topology, n):
    g = build_network(topology, n)
    return g.with_classes({v: LQ for v in g.transport_ids})


def node_weight(graph, v, mapping):
    """The exact weight of a node, as a fraction, so path costs sum without rounding."""
    if graph.kinds[v] is not NodeKind.TRANSPORT:
        return Fraction(0)
    return Fraction(mapping(graph.classes[v].eta))


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
    g = g.with_classes({v: (LQ if v == 1 else HQ) for v in g.transport_ids})
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
            g.remove_edge(u, v)
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
            {v: (HQ if rng.random() < 0.5 else LQ) for v in base.transport_ids}
        )
        for source in g.source_ids:
            for destination in g.destination_ids:
                got = shortest_path(g, source, destination, aware)
                assert got == brute_force_best(g, source, destination, aware)[1]
                if seed == 9 and (source, destination) == (10, 14):
                    # Float summation ranks (10, 3, 6, 7, 8, 14) first here.
                    assert got == (10, 3, 4, 5, 8, 14)


def test_shortest_path_rejects_equal_endpoints():
    g = all_lq(GRID, 2)
    with pytest.raises(ValueError):
        shortest_path(g, 4, 4, UNIT)


def test_shortest_path_requires_classes():
    g = build_network(GRID, 2)
    with pytest.raises(ValueError):
        shortest_path(g, 4, 7, UNIT)


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
            n_h = comp.class_counts.get(HQ, 0)
            n_l = comp.class_counts.get(LQ, 0)
            assert n_h + n_l == len(a.path) - 2
            assert a.fidelity == pytest.approx(
                two_class_fidelity(n_h, n_l, 0.999, 0.8, 0.975), abs=1e-12
            )


def test_path_cache_changes_nothing():
    rng = np.random.default_rng(31)
    cache = {}
    for topology in (GRID, CYLINDER):
        g = assign_classes(build_network(topology, 3), 0.5, HQ, LQ, rng)
        pairs = [(g.source_id(r), g.destination_id(r)) for r in range(3)]
        reqs = shuffle_requests(pairs, np.random.default_rng(8))
        plain, _ = allocate_batch(g, reqs, UNIT, 0.0, 0.975)
        cached, _ = allocate_batch(g, reqs, UNIT, 0.0, 0.975, path_cache=cache)
        again, _ = allocate_batch(g, reqs, UNIT, 0.0, 0.975, path_cache=cache)
        assert cached == plain
        assert again == plain
    assert len(cache) > 0


def test_shared_cache_is_safe_across_topologies():
    # Grid(3) and Cylinder(3) share node ids and weights; a shared cache
    # must still route each on its own adjacency.
    shared = {}
    results = {}
    for topology in (GRID, CYLINDER):
        g = all_lq(topology, 3)
        reqs = [RoutingRequest(g.source_id(0), g.destination_id(2), 1)]
        with_shared, _ = allocate_batch(g, reqs, UNIT, 0.0, 0.975, path_cache=shared)
        fresh, _ = allocate_batch(g, reqs, UNIT, 0.0, 0.975, path_cache={})
        assert with_shared == fresh
        results[topology] = with_shared[0].path
    # The wrap edge gives the cylinder a strictly shorter crossing.
    assert len(results[CYLINDER]) < len(results[GRID])


def test_path_cache_is_keyed_on_the_input_edge_set():
    """A route cached on the full grid must not be reused on a graph lacking its edges."""
    g = all_lq(GRID, 3)
    reqs = [RoutingRequest(g.source_id(0), g.destination_id(0), 1)]
    cache = {}
    full, _ = allocate_batch(g, reqs, UNIT, 0.0, 0.975, path_cache=cache)
    assert full[0].path == (9, 0, 1, 2, 12)
    cut = g.copy()
    cut.remove_edge(0, 1)
    cached, _ = allocate_batch(cut, reqs, UNIT, 0.0, 0.975, path_cache=cache)
    fresh, _ = allocate_batch(cut, reqs, UNIT, 0.0, 0.975)
    assert cached == fresh
    assert cached[0].path == (9, 0, 3, 4, 1, 2, 12)


def test_shared_cache_follows_mapping_classes_and_link_fidelity():
    """Reusing one cache while the mapping, the classes or the link fidelity
    change between calls gives the results of a fresh cache every time."""
    rng = np.random.default_rng(77)
    g = assign_classes(build_network(GRID, 4), 0.5, HQ, LQ, rng)
    other = assign_classes(g, 0.25, HQ, LQ, rng)
    pairs = [(g.source_id(r), g.destination_id(3 - r)) for r in range(4)]
    reqs = shuffle_requests(pairs, np.random.default_rng(5))
    aware = noise_aware_mapping(LQ.eta, 2.5)
    shared = {}
    for graph, mapping, link_fidelity in [
        (g, UNIT, 0.975), (g, aware, 0.975), (other, aware, 0.975),
        (other, aware, 0.99), (g, UNIT, 0.975), (other, UNIT, 0.99),
    ]:
        with_shared = allocate_batch(graph, reqs, mapping, 0.3, link_fidelity, shared)
        assert with_shared == allocate_batch(graph, reqs, mapping, 0.3, link_fidelity)


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
