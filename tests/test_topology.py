"""Structure tests for the grid and cylinder network builders."""

import numpy as np
import pytest

from qrepnet import (
    CYLINDER,
    GRID,
    NetworkGraph,
    NodeKind,
    NoiseClass,
    assign_classes,
    build_network,
    to_edge_list,
)

HQ = NoiseClass("HQ", 0.999)
LQ = NoiseClass("LQ", 0.8)


def bfs_dist(graph: NetworkGraph, a: int, b: int) -> int:
    frontier = {a}
    seen = {a}
    d = 0
    while frontier:
        if b in frontier:
            return d
        frontier = {w for v in frontier for w in graph.adjacency[v]} - seen
        seen |= frontier
        d += 1
    raise AssertionError(f"{a} and {b} are disconnected")


def test_grid5_counts():
    g = build_network(GRID, 5)
    assert g.num_nodes == 35
    assert g.num_transport == 25
    assert g.num_edges == 50


def test_cylinder5_counts():
    g = build_network(CYLINDER, 5)
    assert g.num_nodes == 35
    assert g.num_edges == 55


def test_grid2_counts():
    g = build_network(GRID, 2)
    assert g.num_nodes == 8
    assert g.num_edges == 8


def test_cylinder2_wrap_collapses_onto_lattice_edge():
    # With two rows, the per-column wrap duplicates an existing lattice edge
    # and the simple graph absorbs it, so both topologies coincide.
    assert build_network(CYLINDER, 2).num_edges == build_network(GRID, 2).num_edges


def test_node_id_layout():
    g = build_network(GRID, 5)
    assert [g.source_id(r) for r in range(5)] == list(range(25, 30))
    assert [g.destination_id(r) for r in range(5)] == list(range(30, 35))
    kinds = [NodeKind.TRANSPORT] * 25 + [NodeKind.SOURCE] * 5 + [NodeKind.DESTINATION] * 5
    assert list(g.kinds) == kinds


def test_tier_attachment_is_row_aligned():
    g = build_network(GRID, 5)
    for row in range(5):
        assert g.adjacency[g.source_id(row)] == {row * 5}
        assert g.adjacency[g.destination_id(row)] == {row * 5 + 4}


def test_core_is_four_neighbor_lattice():
    g = build_network(GRID, 4)
    # Node (row, col) is row * 4 + col.  Interior node (1, 1): all four
    # lattice neighbors, no tier.
    assert sorted(g.adjacency[5]) == [1, 4, 6, 9]
    # Top-left corner: right, down and its source.
    assert g.adjacency[0] == {1, 4, g.source_id(0)}
    # No wrap from the top row to the bottom one.
    assert 12 not in g.adjacency[0]


def test_cylinder_adds_one_wrap_edge_per_column():
    grid = build_network(GRID, 5)
    cyl = build_network(CYLINDER, 5)
    extra = set(cyl.edges()) - set(grid.edges())
    assert extra == {(c, 4 * 5 + c) for c in range(5)}


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_cylinder_vertical_ring_distance(n):
    cyl = build_network(CYLINDER, n)
    for col in range(n):
        assert bfs_dist(cyl, col, (n - 1) * n + col) == 1
        for row in range(n):
            d = bfs_dist(cyl, col, row * n + col)
            assert d <= n // 2


def test_degree_and_edge_iteration_consistency():
    g = build_network(CYLINDER, 5)
    assert sum(len(g.adjacency[v]) for v in range(g.num_nodes)) == 2 * g.num_edges
    edges = list(g.edges())
    assert edges == sorted(edges)
    assert all(u < v for u, v in edges)


def test_build_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_network("torus", 5)
    with pytest.raises(ValueError):
        build_network(GRID, 1)


def test_assign_classes_counts():
    g = build_network(GRID, 5)
    for xi, expected in [(0.0, 0), (0.2, 5), (0.6, 15), (1.0, 25)]:
        classed = assign_classes(g, xi, HQ, LQ, np.random.default_rng(0))
        hq_nodes = [v for v in range(classed.num_transport) if classed.classes[v] == HQ]
        assert len(hq_nodes) == expected
        lq_nodes = [v for v in range(classed.num_transport) if classed.classes[v] == LQ]
        assert len(hq_nodes) + len(lq_nodes) == 25


def test_assign_classes_never_touches_tiers():
    g = build_network(CYLINDER, 5)
    classed = assign_classes(g, 0.48, HQ, LQ, np.random.default_rng(3))
    for v in range(g.num_transport, g.num_nodes):
        assert classed.classes[v] is None


def test_assign_classes_reproducible():
    g = build_network(GRID, 5)
    a = assign_classes(g, 0.4, HQ, LQ, np.random.default_rng(42))
    b = assign_classes(g, 0.4, HQ, LQ, np.random.default_rng(42))
    assert a.classes == b.classes


def test_upgraded_sets_are_nested_in_xi():
    """For one generator state the upgrade draw is a single permutation, so
    the upgraded set at a smaller xi is a subset of the set at a larger xi."""
    g = build_network(GRID, 5)
    for seed in range(5):
        sets = []
        for xi in (0.2, 0.4, 0.6, 0.8):
            classed = assign_classes(g, xi, HQ, LQ, np.random.default_rng(seed))
            sets.append({v for v in range(classed.num_transport) if classed.classes[v] == HQ})
        for small, big in zip(sets, sets[1:]):
            assert small <= big


def test_assign_classes_rejects_out_of_range_xi():
    g = build_network(GRID, 3)
    for xi in (-0.1, 1.1):
        with pytest.raises(ValueError):
            assign_classes(g, xi, HQ, LQ, np.random.default_rng(0))


def test_with_classes_rejects_tier_nodes():
    g = build_network(GRID, 3)
    with pytest.raises(ValueError):
        g.with_classes({g.source_id(0): HQ})


def test_copy_isolates_adjacency():
    g = build_network(GRID, 3)
    h = g.copy()
    h.adjacency[0].discard(1)
    h.adjacency[1].discard(0)
    assert 1 in g.adjacency[0] and 0 in g.adjacency[1]
    assert h.num_edges == g.num_edges - 1


def test_edge_list_round_trip():
    g = assign_classes(build_network(CYLINDER, 4), 0.5, HQ, LQ, np.random.default_rng(9))
    text = to_edge_list(g)
    node_lines = []
    edge_lines = []
    section = None
    for line in text.strip().splitlines():
        if line.startswith("#"):
            section = "nodes" if "nodes" in line else "edges"
            continue
        (node_lines if section == "nodes" else edge_lines).append(line.split())
    assert len(node_lines) == g.num_nodes
    kinds = {int(p[0]): p[1] for p in node_lines}
    assert kinds[0] == "transport"
    assert kinds[g.source_id(0)] == "source"
    labels = {int(p[0]): p[2] for p in node_lines if len(p) > 2}
    assert set(labels) == set(range(g.num_transport))
    assert sorted(labels.values()).count("HQ") == 8
    parsed_edges = {(int(u), int(v)) for u, v in edge_lines}
    assert parsed_edges == set(g.edges())


def test_edge_list_omits_labels_when_unclassed():
    text = to_edge_list(build_network(GRID, 2))
    body = [l for l in text.splitlines() if not l.startswith("#")]
    assert all(len(l.split()) == 2 for l in body)
