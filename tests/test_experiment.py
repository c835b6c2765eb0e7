"""Tests for the Monte-Carlo sweep drivers and their randomness contract."""

import functools
import gc
import inspect
import itertools
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qrepnet import (
    AWARE,
    CYLINDER,
    GRID,
    MAPPINGS,
    UNAWARE,
    BlockReason,
    ExperimentConfig,
    SampleStats,
    ThetaProfile,
    XiSummary,
    default_xi_grid,
    draw_pairing,
    end_to_end_fidelity,
    run_trial,
    study_blocking,
    study_noise_awareness,
    sweep_eta_l,
    assign_classes,
    build_network,
    path_composition,
    sweep_xi,
    two_class_fidelity,
)
import qrepnet
from qrepnet import experiment, routing
from qrepnet.routing import allocate_batch, cheapest_route, network_frame, shuffle_requests
from qrepnet.topology import base_network

SMALL = ExperimentConfig(
    topology=CYLINDER, num_pair_draws=2, num_class_draws=10, xi_values=(0.0, 0.4, 0.8, 1.0)
)


@pytest.fixture
def in_process(monkeypatch):
    """Studies fold every class draw in this process, where a test can watch
    the engine and the routing memo."""
    monkeypatch.setattr(experiment, "_workers", lambda: 1)


def use_workers(monkeypatch, count):
    """Studies use ``count`` workers, in a pool whatever their size."""
    monkeypatch.setattr(experiment, "_workers", lambda: count)
    monkeypatch.setattr(experiment, "_MIN_POOLED_REQUESTS", 0)


def test_default_xi_grid():
    grid = default_xi_grid(5)
    assert len(grid) == 26
    assert grid[0] == 0.0
    assert grid[-1] == 1.0
    assert grid[13] == pytest.approx(0.52)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(topology="moebius")
    with pytest.raises(ValueError):
        ExperimentConfig(eta_l=0.5)
    with pytest.raises(ValueError):
        ExperimentConfig(link_fidelity=0.2)
    with pytest.raises(ValueError):
        ExperimentConfig(mapping="psychic")
    with pytest.raises(ValueError):
        ExperimentConfig(f_bar=1.5)
    with pytest.raises(ValueError):
        ExperimentConfig(seed=-1)
    with pytest.raises(ValueError):
        ExperimentConfig(xi_values=(0.5, 1.2))
    for weight in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            ExperimentConfig(aware_weight=weight)
    whole = ExperimentConfig(n=np.int64(3), num_pair_draws=np.int32(1),
                             num_class_draws=np.uint8(2), seed=np.int64(7))
    assert whole.n == 3 and whole.seed == 7


@pytest.mark.parametrize("field, value", [
    ("eta_h", "0.9"), ("eta_l", None), ("link_fidelity", "x"), ("f_bar", None),
    ("aware_weight", "1"), ("xi_values", [0.0, 1.0]),
    ("xi_values", ("0.5",)), ("xi_values", (None,)), ("xi_values", 0.5),
])
def test_config_rejects_wrong_types_and_stays_hashable(field, value):
    """A field of the wrong type is a ``ValueError`` that names it, not a
    ``TypeError`` from inside a check, and xi values given as a list are
    kept as a tuple, so the frozen config hashes."""
    if value == [0.0, 1.0]:
        config = ExperimentConfig(xi_values=value)
        assert config.xi_values == tuple(value)
        assert hash(config) == hash(replace(config, xi_values=tuple(value)))
        return
    wanted = "an iterable of real numbers" if field == "xi_values" else "a real number"
    with pytest.raises(ValueError, match=f"^{field} must be {wanted}"):
        ExperimentConfig(**{field: value})


@pytest.mark.parametrize("field, value, wanted", [
    ("seed", True, "an integer"), ("num_pair_draws", True, "an integer"),
    ("num_class_draws", False, "an integer"), ("eta_h", True, "a real number"),
    ("f_bar", False, "a real number"),
])
def test_config_rejects_a_bool_as_a_number(field, value, wanted):
    """A bool is an ``Integral``, yet no count, seed, rate or threshold: the
    config rejects it with the message of a value of the wrong type."""
    with pytest.raises(ValueError, match=f"^{field} must be {wanted}, got {value}$"):
        ExperimentConfig(**{field: value})


@pytest.mark.parametrize("start", [
    lambda: ExperimentConfig(n=2.5),
    lambda: ExperimentConfig(num_pair_draws=1.5),
    lambda: ExperimentConfig(num_class_draws=1.5),
    lambda: ExperimentConfig(seed=1.5),
    lambda: ExperimentConfig(xi_values=()),
    lambda: sweep_eta_l(SMALL, (0.99, 0.4)),
], ids=["n", "pair_draws", "class_draws", "seed", "no_xi", "second_eta_l"])
def test_bad_configs_fail_before_any_sweep(monkeypatch, start):
    """A config that would fail mid-study (in ``range``, ``SeedSequence`` or a
    division by zero requests), or a bad later noise rate, is a
    ``ValueError`` before the first sweep."""
    sweeps = []
    monkeypatch.setattr(experiment, "sweep_xi", sweeps.append)
    with pytest.raises(ValueError):
        start()
    assert sweeps == []


def test_draw_pairing_is_a_bijection_and_reproducible():
    seen = set()
    for p in range(5):
        perm = draw_pairing(12345, 5, p)
        assert sorted(perm) == list(range(5))
        assert perm == draw_pairing(12345, 5, p)
        seen.add(perm)
    assert len(seen) > 1


def test_the_package_root_exports_every_public_name():
    """``qrepnet`` re-exports each name of every module's ``__all__``, the
    same object, and nothing else but its modules and version."""
    modules = (qrepnet.fidelity, qrepnet.topology, qrepnet.routing, qrepnet.experiment)
    public = {name: getattr(m, name) for m in modules for name in m.__all__}
    exported = {
        name: value for name, value in vars(qrepnet).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported == public


def test_run_trial_is_deterministic():
    a = run_trial(SMALL, 0.4, 1, 3)
    b = run_trial(SMALL, 0.4, 1, 3)
    assert a == b


def test_run_trial_outcome_consistency():
    record = run_trial(SMALL, 0.4, 0, 0)
    assert sorted(o.theta for o in record.outcomes) == [1, 2, 3, 4, 5]
    for o in record.outcomes:
        if o.blocked is not None:
            assert o.path_node_count is None and o.fidelity is None
            continue
        assert o.n_h + o.n_l == o.path_node_count - 2
        assert o.fidelity == pytest.approx(
            two_class_fidelity(o.n_h, o.n_l, 0.999, 0.8, 0.975), abs=1e-12
        )


def test_every_allocated_fidelity_is_the_two_class_closed_form():
    """Aware routing under a threshold scores every allocated route with
    ``two_class_fidelity`` of its high- and low-quality node counts, bit for
    bit, on mixed graphs and on the all-HQ graph alike."""
    cfg = replace(SMALL, mapping=AWARE, f_bar=0.3)
    seen = set()
    for xi in default_xi_grid(cfg.n):
        for pairing in range(cfg.num_pair_draws):
            for draw in range(cfg.num_class_draws):
                for o in run_trial(cfg, xi, pairing, draw).outcomes:
                    if o.blocked is None:
                        seen.add((o.n_h, o.n_l))
                        assert o.fidelity == two_class_fidelity(
                            o.n_h, o.n_l, cfg.eta_h, cfg.eta_l, cfg.link_fidelity
                        )
    assert any(n_h and n_l for n_h, n_l in seen) and any(not n_l for _, n_l in seen)


def test_swapped_noise_rates_report_the_closed_form_in_the_configs_labels():
    """With ``eta_l`` above ``eta_h`` the router takes the config's
    low-quality class as its high-quality one, yet every fidelity a trial
    reports is ``two_class_fidelity`` of the outcome's own ``n_h`` and
    ``n_l``, in the config's labels, bit for bit."""
    cfg = replace(SMALL, eta_h=0.8, eta_l=0.999, link_fidelity=1.0, num_class_draws=4)
    mixed = 0
    for xi in (0.2, 0.4, 0.6, 0.8):
        for pairing in range(cfg.num_pair_draws):
            for draw in range(cfg.num_class_draws):
                for o in run_trial(cfg, xi, pairing, draw).outcomes:
                    if o.blocked is None:
                        mixed += bool(o.n_h and o.n_l)
                        assert o.fidelity == two_class_fidelity(
                            o.n_h, o.n_l, cfg.eta_h, cfg.eta_l, cfg.link_fidelity
                        )
    assert mixed


def test_all_high_quality_at_full_upgrade():
    record = run_trial(SMALL, 1.0, 0, 0)
    for o in record.outcomes:
        if o.blocked is None:
            assert o.n_l == 0


def test_all_low_quality_at_zero_upgrade():
    record = run_trial(SMALL, 0.0, 0, 0)
    for o in record.outcomes:
        if o.blocked is None:
            assert o.n_h == 0


def test_unreachable_threshold_blocks_every_request():
    # The best grid path crosses five repeaters; at eta_l = 0.8 that caps
    # fidelity near 0.273, so a 0.53 threshold blocks the whole batch and
    # nothing is consumed along the way.
    cfg = replace(SMALL, topology=GRID, f_bar=0.53)
    record = run_trial(cfg, 0.0, 0, 0)
    assert record.num_blocked == 5
    assert all(o.blocked is BlockReason.BELOW_THRESHOLD for o in record.outcomes)


def test_sweep_matches_trials_sample_for_sample():
    """The batched sweep must agree with independently re-run trials.

    A sweep serves its batches class draw by class draw through the routing
    memo; this pins its records to one-batch trials, establishment position
    by establishment position.
    """
    summary = sweep_xi(SMALL)
    for xi_summary in summary.per_xi:
        samples = []
        blocked = 0
        for p in range(SMALL.num_pair_draws):
            for c in range(SMALL.num_class_draws):
                record = run_trial(SMALL, xi_summary.xi, p, c)
                blocked += record.num_blocked
                samples.extend(
                    o.fidelity for o in record.outcomes if o.blocked is None
                )
        assert xi_summary.num_blocked == blocked
        assert xi_summary.num_requests == SMALL.num_pair_draws * SMALL.num_class_draws * 5
        assert xi_summary.fidelity.count == len(samples)
        got, want = xi_summary.fidelity, SampleStats.from_counts(Counter(samples))
        assert (got.minimum, got.q1, got.median, got.q3, got.maximum) == (
            want.minimum, want.q1, want.median, want.q3, want.maximum,
        )
        assert xi_summary.fidelity.mean == pytest.approx(np.mean(samples), abs=1e-13)


def test_aware_unit_weight_detour_matches_unaware():
    """With the detour weight forced to 1 both mappings rank paths alike, so
    the aware sweep, which evaluates its own node weights, must give the
    unaware statistics exactly."""
    fast = sweep_xi(SMALL)
    slow = sweep_xi(replace(SMALL, mapping=AWARE, aware_weight=1.0))
    for a, b in zip(fast.per_xi, slow.per_xi):
        assert a.num_blocked == b.num_blocked
        assert a.fidelity.count == b.fidelity.count
        ga, gb = a.fidelity, b.fidelity
        assert (ga.minimum, ga.q1, ga.median, ga.q3, ga.maximum) == (
            gb.minimum, gb.q1, gb.median, gb.q3, gb.maximum,
        )
        assert a.fidelity.mean == pytest.approx(b.fidelity.mean, abs=1e-13)


def test_mean_fidelity_is_monotone_in_xi():
    """Upgraded sets are nested along xi within each class draw, so every
    fidelity sample, and hence the mean, can only improve with xi."""
    summary = sweep_xi(replace(SMALL, xi_values=tuple(k / 25 for k in range(26))))
    means = [x.fidelity.mean for x in summary.per_xi]
    for lo, hi in zip(means, means[1:]):
        assert hi >= lo - 1e-12
    assert means[-1] > means[0]
    medians = [x.fidelity.median for x in summary.per_xi]
    for lo, hi in zip(medians, medians[1:]):
        assert hi >= lo - 1e-12


def test_equal_noise_rates_make_xi_irrelevant():
    cfg = replace(SMALL, eta_l=0.999, eta_h=0.999)
    summary = sweep_xi(cfg)
    ref = summary.per_xi[0]
    for x in summary.per_xi[1:]:
        assert x.num_blocked == ref.num_blocked
        assert x.fidelity.count == ref.fidelity.count
        assert x.fidelity.mean == pytest.approx(ref.fidelity.mean, abs=1e-12)
        assert x.fidelity.median == pytest.approx(ref.fidelity.median, abs=1e-12)


def test_aware_mapping_routes_as_unaware_at_equal_noise_rates():
    """The aware mapping reads a node's noise rate, not its class, and
    weighs the node ``aware_weight`` when the rate equals ``eta_l``.  At
    ``eta_h == eta_l`` every transport node then weighs the same, so both
    mappings route and block alike at every point; at distinct rates they
    do not."""
    cfg = ExperimentConfig(
        topology=CYLINDER, n=4, eta_h=0.95, eta_l=0.95, num_pair_draws=2,
        num_class_draws=4, seed=3,
    )

    def rows(config):
        points = study_blocking(config, (0.3, 0.5))
        return {
            mapping: [(p.f_bar, p.xi, p.blocking_probability) for p in points
                      if p.mapping == mapping]
            for mapping in MAPPINGS
        }

    equal = rows(cfg)
    assert equal[AWARE] == equal[UNAWARE]
    assert all(blocked > 0.0 for _, _, blocked in equal[AWARE])
    apart = rows(replace(cfg, eta_l=0.8))
    assert apart[AWARE] != apart[UNAWARE]


def test_sweep_is_reproducible():
    a = sweep_xi(SMALL)
    b = sweep_xi(SMALL)
    assert a.per_xi == b.per_xi


def test_off_grid_xi_warns():
    """Every study warns once about an xi off the ``1 / n**2`` grid, at its
    caller; a grid of multiples of ``1 / n**2`` warns nothing."""
    cfg = replace(SMALL, xi_values=(0.3,), num_class_draws=2)
    for study in (sweep_xi, study_blocking, study_noise_awareness):
        with pytest.warns(UserWarning, match="not a multiple") as caught:
            study(cfg)
        assert [w.filename for w in caught] == [__file__]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sweep_xi(replace(SMALL, num_class_draws=2))


def test_run_trial_warns_on_an_off_grid_xi():
    """A single trial rounds an off-grid xi as a sweep does, and says so:
    at n=5, xi=0.5 upgrades round(12.5) = 12 nodes.  The warning points at
    the caller of ``run_trial``; an on-grid xi warns nothing."""
    with pytest.warns(UserWarning, match="rounds to 12") as caught:
        run_trial(SMALL, 0.5, 0, 0)
    assert [w.filename for w in caught] == [__file__]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_trial(SMALL, 0.48, 0, 0)


def test_blocking_grows_with_threshold():
    cfg = replace(SMALL, num_class_draws=15, xi_values=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0))
    points = study_blocking(cfg, f_bar_values=(0.0, 0.53, 0.7))
    by_key = {(p.mapping, p.f_bar, p.xi): p.blocking_probability for p in points}
    for mapping in (UNAWARE, AWARE):
        for xi in cfg.xi_values:
            seq = [by_key[(mapping, fb, xi)] for fb in (0.0, 0.53, 0.7)]
            assert seq == sorted(seq)


def test_blocking_study_rows_cover_the_request_grid():
    cfg = replace(SMALL, num_class_draws=5, xi_values=(0.0, 1.0))
    points = study_blocking(cfg, f_bar_values=(0.6,))
    assert len(points) == 2 * 1 * 2
    assert all(0.0 <= p.blocking_probability <= 1.0 for p in points)


def test_noise_awareness_rejects_threshold():
    with pytest.raises(ValueError):
        study_noise_awareness(replace(SMALL, f_bar=0.7))


def test_noise_awareness_mappings_coincide_at_uniform_classes():
    """With no upgraded nodes (or all upgraded) the aware weights are a
    constant multiple of the unaware ones, so both pick identical routes."""
    cfg = replace(SMALL, num_class_draws=5, xi_values=(0.0, 1.0))
    profiles = study_noise_awareness(cfg)
    by_key = {(p.mapping, p.xi, p.theta): p.fidelities for p in profiles}
    for xi in (0.0, 1.0):
        for theta in range(1, 6):
            assert by_key[(UNAWARE, xi, theta)] == by_key[(AWARE, xi, theta)]


def test_noise_awareness_covers_all_positions():
    cfg = replace(SMALL, num_class_draws=5, xi_values=(0.6,))
    profiles = study_noise_awareness(cfg)
    keys = {(p.mapping, p.xi, p.theta) for p in profiles}
    assert keys == {(m, 0.6, t) for m in (UNAWARE, AWARE) for t in range(1, 6)}
    for p in profiles:
        assert p.count <= cfg.num_pair_draws * cfg.num_class_draws
        if p.count:
            assert p.mean == pytest.approx(np.mean(p.fidelities))


def test_eta_sweep_shares_randomness():
    results = sweep_eta_l(replace(SMALL, num_class_draws=5), (0.99, 0.8))
    assert [eta for eta, _ in results] == [0.99, 0.8]
    strong = {x.xi: x for x in results[0][1].per_xi}
    weak = {x.xi: x for x in results[1][1].per_xi}
    for xi in SMALL.xi_values:
        # Same trials, same routes; only the low-quality rate differs, so
        # the sample counts line up and the better rate dominates.
        assert strong[xi].fidelity.count == weak[xi].fidelity.count
        assert strong[xi].fidelity.mean >= weak[xi].fidelity.mean - 1e-12


def test_memoised_scorer_equals_the_two_class_closed_form():
    """The score memo, keyed by the high- and low-quality node counts, the
    two noise rates and the link fidelity, is exact, not approximate: every
    score ``allocate_batch`` gives is ``two_class_fidelity`` of the route's
    high- and low-quality node counts, bit for bit, on a memo miss and on a
    hit.  One memo serves every graph: two link fidelities, mixed graphs,
    one-class graphs (xi = 0 and xi = 1), a low-quality rate equal to the
    high-quality one under its own label, and fresh class objects per
    graph, as ``sweep_eta_l`` and the two mapping passes make them.
    """
    base = build_network(CYLINDER, 5)
    rng = np.random.default_rng(404)
    memo = routing._fidelity
    memo.cache_clear()
    scored = 0
    for link_fidelity, eta_l in itertools.product((0.975, 0.99), (0.8, 0.9, 0.999)):
        cfg = ExperimentConfig(
            topology=CYLINDER, n=5, eta_l=eta_l, link_fidelity=link_fidelity, mapping=AWARE
        )
        for xi in (0.0, 0.2, 0.48, 0.76, 1.0):
            hq, lq = cfg.hq_class(), cfg.lq_class()
            classed = assign_classes(base, xi, hq, lq, rng)
            mapping = cfg.weight_mapping()
            for _ in range(8):
                pairs = [
                    (base.source_id(r), base.destination_id(int(d)))
                    for r, d in enumerate(rng.permutation(5))
                ]
                requests = shuffle_requests(pairs, rng)
                for repeat in (False, True):
                    misses = memo.cache_info().misses
                    allocations, _ = allocate_batch(
                        classed, requests, mapping, 0.0, cfg.link_fidelity
                    )
                    for a in allocations:
                        if not a.allocated:
                            continue
                        counts = path_composition(classed, a.path)
                        assert a.fidelity == two_class_fidelity(
                            counts.get(hq, 0), counts.get(lq, 0), cfg.eta_h, eta_l,
                            cfg.link_fidelity,
                        )
                        assert a.fidelity == end_to_end_fidelity(counts, cfg.link_fidelity)
                        scored += 1
                    if repeat:
                        # The same batch again: every score is a hit.
                        assert memo.cache_info().misses == misses
    info = memo.cache_info()
    assert info.misses > 0 and info.hits > 0 and scored == info.misses + info.hits


def test_every_sweep_batch_is_served_by_allocate_batch(monkeypatch, in_process):
    """Sweeps serve each (xi, pairing, class draw) batch with one call of the
    public batch router, so tracing that function sees every batch."""
    calls = []

    def counted(graph, requests, *args):
        calls.append(len(requests))
        return allocate_batch(graph, requests, *args)

    monkeypatch.setattr(experiment, "allocate_batch", counted)
    cfg = replace(SMALL, mapping=AWARE, f_bar=0.3)
    summary = sweep_xi(cfg)
    batches = len(SMALL.xi_values) * cfg.num_pair_draws * cfg.num_class_draws
    assert calls == [cfg.n] * batches
    assert sum(x.num_requests for x in summary.per_xi) == cfg.n * batches


def test_every_pooled_sweep_batch_is_counted(monkeypatch):
    """A sweep whose class draws run in worker processes serves each batch
    once there, and the parent's routing counters add up every one."""
    use_workers(monkeypatch, 2)
    monkeypatch.setattr(routing, "counters", routing.Counters())
    routing._last = None
    cfg = replace(SMALL, mapping=AWARE, f_bar=0.3)
    assert experiment._pool_workers(1, cfg) == 2
    summary = sweep_xi(cfg)
    # The parent routed nothing itself.
    assert routing._last is None
    batches = len(SMALL.xi_values) * cfg.num_pair_draws * cfg.num_class_draws
    counted = routing.counters
    assert (counted.batches, counted.requests) == (batches, cfg.n * batches)
    assert sum(x.num_requests for x in summary.per_xi) == cfg.n * batches


def test_routing_memo_changes_no_sweep(in_process):
    """A sweep that starts on the memo left by a sweep at another threshold
    equals the same sweep started on an empty memo."""
    cfg = replace(SMALL, mapping=AWARE, num_class_draws=4)
    for f_bar in (0.0, 0.3, 0.0):
        memoised = sweep_xi(replace(cfg, f_bar=f_bar))
        routing._last = None
        fresh = sweep_xi(replace(cfg, f_bar=f_bar))
        assert memoised.per_xi == fresh.per_xi
    assert routing._last.routes


def test_blocking_study_is_one_pass_per_mapping(monkeypatch, in_process):
    """Each mapping serves all thresholds in one engine pass, and its
    blocking probabilities equal those of one sweep per threshold."""
    passes = []
    engine = experiment._sweep

    def counted(config, f_bars, *args):
        passes.append((config.mapping, tuple(f_bars)))
        return engine(config, f_bars, *args)

    monkeypatch.setattr(experiment, "_sweep", counted)
    f_bars = (0.3, 0.0, 0.28, 0.3)
    points = study_blocking(SMALL, f_bars)
    assert passes == [(UNAWARE, f_bars), (AWARE, f_bars)]
    monkeypatch.undo()
    want = [
        (mapping, f_bar, x.xi, x.blocking_probability)
        for mapping in (UNAWARE, AWARE)
        for f_bar in f_bars
        for x in sweep_xi(replace(SMALL, mapping=mapping, f_bar=f_bar)).per_xi
    ]
    assert [(p.mapping, p.f_bar, p.xi, p.blocking_probability) for p in points] == want
    assert 0.0 < sum(p.blocking_probability for p in points) < len(points)


def test_routing_memo_holds_one_cost_vector(monkeypatch, in_process):
    """Every route table the memo builds during an aware sweep serves one
    cost vector up to a positive factor, graphs whose transport nodes all
    cost the same (here the all-LQ and all-HQ ones) route through the
    frame's one uniform-cost table, every search state is the graph's own
    or carried from the immediately previous graph, whose costs were no
    lower anywhere, and the memo left behind holds exactly the last graph's
    cheapest routes, whose class counts its rates and flags give.  The
    score memo computes each score once, through the module's
    ``two_class_fidelity``, and holds scores that are each
    ``two_class_fidelity`` of their key."""
    routers = []  # kept alive so that table ids stay unique
    offered = []  # per router, the searches its table held when the next was built
    build = routing._router

    def recorded(*args):
        router = build(*args)
        if not routers or router is not routers[-1]:
            if routers:
                offered.append(set(map(id, routers[-1].searches.values())))
            routers.append(router)
        return router

    scores = {}
    closed_form = routing.two_class_fidelity

    def scored(*key):
        assert key not in scores
        scores[key] = closed_form(*key)
        return scores[key]

    monkeypatch.setattr(routing, "_router", recorded)
    monkeypatch.setattr(routing, "two_class_fidelity", scored)
    cfg = replace(SMALL, mapping=AWARE, f_bar=0.28, num_class_draws=4)
    routing._last = None
    routing._fidelity.cache_clear()
    sweep_xi(cfg)
    shape_of = {}
    for router in routers:
        scale = math.gcd(*router.costs)
        shape = tuple(c // scale for c in router.costs)
        assert shape_of.setdefault(id(router.routes), shape) == shape
        assert (router.routes is router.hops) == (len(set(router.costs) - {0}) == 1)
    assert len(shape_of) > 1
    assert len({id(router.hops) for router in routers}) == 1
    assert len({router.costs for router in routers if router.routes is router.hops}) == 2
    assert len({id(router.classes) for router in routers}) == len(routers)
    earlier: set[int] = set()
    carried = 0
    for previous, router, held in zip(routers, routers[1:], offered):
        assert router.carried is previous.searches or router.carried == {}
        if router.carried is previous.searches:
            assert all(c <= was for c, was in zip(router.costs, previous.costs))
        earlier |= held
        for search in router.searches.values():
            if id(search) in earlier:
                assert id(search) in held and router.carried is previous.searches
                carried += 1
    assert carried > 0
    alive = [id(search) for router in routers for search in router.searches.values()]
    assert len(alive) == len(set(alive))
    last = routing._last
    assert last is routers[-1]
    for (source, destination, used), route in last.routes.items():
        fresh = routing._search(last.frame, destination)
        assert route == cheapest_route(last.frame, last.costs, source, destination, used, fresh)
    graph = replace(base_network(cfg.topology, cfg.n), classes=last.classes)
    # A one-class graph (the last, at xi = 1) pairs its rate with itself.
    assert last.rates == (cfg.eta_h, cfg.eta_l if cfg.lq_class() in last.classes else cfg.eta_h)
    routed = [route for route in last.routes.values() if route is not None]
    assert routed
    for route in routed:
        counts = path_composition(graph, route.path)
        assert sum(last.flags[v] for v in route.path) == counts.get(cfg.lq_class(), 0)
    assert scores == {key: two_class_fidelity(*key) for key in scores}
    misses = routing._fidelity.cache_info().misses
    assert all(routing._fidelity(*key) == fidelity for key, fidelity in scores.items())
    assert routing._fidelity.cache_info().misses == misses
    assert last.searches
    for (destination, used), search in last.searches.items():
        for source in map(graph.source_id, range(graph.n)):
            fresh = routing._search(last.frame, destination)
            assert cheapest_route(
                last.frame, last.costs, source, destination, used, search
            ) == cheapest_route(last.frame, last.costs, source, destination, used, fresh)


def test_each_destination_and_residual_is_searched_once_per_graph(
    monkeypatch, in_process
):
    """During an aware sweep, each (classed graph, destination, residual
    mask) starts one reverse search at most: every route toward that
    destination on that residual resumes the same search state."""
    alive = []  # routers and states, kept alive so that their ids stay unique
    states = {}
    route = routing.cheapest_route

    def counted(*args):
        _, _, _, destination, used, search = args
        alive.append((routing._last, search))
        states.setdefault((id(routing._last), destination, used), set()).add(id(search))
        return route(*args)

    monkeypatch.setattr(routing, "cheapest_route", counted)
    routing._last = None
    sweep_xi(replace(SMALL, mapping=AWARE, f_bar=0.28, num_class_draws=4))
    assert all(len(ids) == 1 for ids in states.values())
    assert len(states) < len(alive)


def test_sweep_graphs_share_the_routing_frame_adjacency():
    """Classed graphs of a sweep share the adjacency of their routing frame,
    which ``network_frame`` recognises by identity; an equal graph built by
    a caller maps to the same frame, with no edge missing, by a scan of its
    edges."""
    [(_, _, _, graph, _, _)] = experiment._sweep(
        replace(SMALL, xi_values=(0.4,)), (0.0,), (0,), (0,)
    )
    frame, used = network_frame(graph)
    assert graph.adjacency is frame.adjacency and used == 0
    built = build_network(SMALL.topology, SMALL.n)
    assert built.adjacency is not frame.adjacency
    assert network_frame(built) == (frame, 0)


def test_stats_helpers():
    s = SampleStats.from_samples([1.0, 2.0, 3.0, 4.0, 100.0])
    assert s.count == 5
    assert s.maximum == 100.0
    assert (s.q1, s.median, s.q3) == (2.0, 3.0, 4.0)
    with pytest.raises(ValueError):
        SampleStats.from_counts(Counter())
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            SampleStats.from_samples([0.5, bad, 0.7])
        with pytest.raises(ValueError, match="finite"):
            SampleStats.from_counts({0.5: 2, bad: 1})
    # Each value must occur a positive whole number of times: a negative
    # count gave a mean outside the sample, a zero one a maximum that never
    # occurs or an empty sample, and a fractional one a fractional count.
    for counts in ({0.5: 2, 0.7: -1}, {0.5: 2, 0.7: 0}, {0.5: 0}, {0.5: 1.5}):
        with pytest.raises(ValueError, match="counts must be"):
            SampleStats.from_counts(counts)
    numpy_counts = SampleStats.from_counts({0.5: np.int64(2), 0.7: 1})
    assert numpy_counts == SampleStats.from_counts({0.5: 2, 0.7: 1})
    assert type(numpy_counts.count) is int


def numpy_five_numbers(values):
    """The numpy minimum, quartiles and maximum that the counted ones
    replaced, kept as their reference."""
    arr = np.asarray(values, dtype=float)
    q1, median, q3 = (float(q) for q in np.quantile(arr, (0.25, 0.5, 0.75)))
    return float(arr.min()), q1, median, q3, float(arr.max())


@given(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=80)
    )
)
def test_counted_stats_match_numpy(values):
    """Stats built from value counts reproduce ``np.quantile`` bit for bit,
    and their mean is the exact mean rounded once, in any sample order."""
    stats = SampleStats.from_samples(values)
    assert SampleStats.from_counts(Counter(values)) == stats
    assert (stats.minimum, stats.q1, stats.median, stats.q3, stats.maximum) == (
        numpy_five_numbers(values)
    )
    assert stats.count == len(values)
    assert stats.mean == float(sum(map(Fraction, values)) / len(values))
    assert stats.mean == pytest.approx(np.mean(values), rel=1e-12, abs=1e-300)
    assert SampleStats.from_samples(values[::-1]) == stats


def exact_stats(values):
    """Count, exact mean rounded once, and numpy's minimum, quartiles and
    maximum."""
    return SampleStats(
        len(values), float(sum(map(Fraction, values)) / len(values)), *numpy_five_numbers(values)
    )


def pooled_trials(cfg):
    """A sweep's total rebuilt from one trial per batch: the exact stats of
    every allocated request of every xi, pooled."""
    outcomes = [
        o for xi in cfg.xi_values for p in range(cfg.num_pair_draws)
        for c in range(cfg.num_class_draws) for o in run_trial(cfg, xi, p, c).outcomes
    ]
    allocated = [(o.path_node_count, o.fidelity) for o in outcomes if o.blocked is None]
    return XiSummary(
        None, len(outcomes), len(outcomes) - len(allocated),
        exact_stats([f for _, f in allocated]),
        float(Fraction(sum(k for k, _ in allocated), len(allocated))),
        {k: exact_stats([f for j, f in allocated if j == k]) for k, _ in allocated},
    )


@given(st.lists(st.floats(0.25, 1.0), min_size=1, max_size=200))
@example([0.36, 0.29, 0.69])
def test_theta_profile_mean_is_exact(fidelities):
    """A profile's mean is the exact mean of its samples, rounded once (a
    float sum, numpy's pairwise one included, may round otherwise)."""
    profile = ThetaProfile(UNAWARE, 0.4, 1, tuple(fidelities))
    assert profile.mean == float(sum(map(Fraction, fidelities)) / len(fidelities))


def test_xi_order_and_repeats_change_no_point():
    """Upgrade fractions given in descending or shuffled order, one of them
    twice, give the points of the ascending run, in the order given.  A
    sweep's total is the exact pooled stats of every request of its trials,
    the same bits in every order.

    Within a class draw the engine walks the fractions in ascending upgrade
    count whatever their order.  Trials run one by one in descending order
    raise node costs from each graph to the next, so routing must search
    afresh there; they must match trials run on an empty memo.
    """
    xi_values = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    cfg = replace(SMALL, mapping=AWARE, f_bar=0.28, num_class_draws=4, xi_values=xi_values)
    f_bars = (0.0, 0.3)
    sweep = sweep_xi(cfg)
    assert pooled_trials(cfg) == sweep.total
    per_xi = {x.xi: x for x in sweep.per_xi}
    points = {(p.mapping, p.f_bar, p.xi): p for p in study_blocking(cfg, f_bars)}
    shuffled = list(xi_values) + [0.4]
    random.Random(6).shuffle(shuffled)
    totals = []
    for order in ((1.0, 0.8, 0.6, 0.4, 0.4, 0.2, 0.0), tuple(shuffled)):
        reordered = replace(cfg, xi_values=order)
        sweep = sweep_xi(reordered)
        assert sweep.per_xi == tuple(per_xi[xi] for xi in order)
        totals.append(sweep.total)
        assert study_blocking(reordered, f_bars) == tuple(
            points[m, f, xi] for m in MAPPINGS for f in f_bars for xi in order
        )
    # Both orders pool the same requests, 0.4's twice, to the same bits.
    assert totals[0] == totals[1] == pooled_trials(replace(cfg, xi_values=order))
    descending = [run_trial(cfg, xi, 1, 2) for xi in reversed(xi_values)]
    for record in descending:
        routing._last = None
        assert record == run_trial(cfg, record.xi, 1, 2)


@pytest.mark.parametrize("workers", [1, 2])
def test_thresholds_taken_from_a_lower_ones_batch_match_single_threshold_runs(
    monkeypatch, workers
):
    """A blocking study whose thresholds come out of order and repeat one
    value gives, point for point, what one study per threshold gives,
    although higher thresholds take every batch whose allocations all pass
    them from the threshold below; every other batch is routed afresh."""
    f_bars = (0.3, 0.0, 0.28, 0.3)
    use_workers(monkeypatch, workers)
    single = {f_bar: study_blocking(SMALL, (f_bar,)) for f_bar in f_bars}
    # The thresholds split the trajectories: no two block alike.
    assert len({tuple(p.blocking_probability for p in points) for points in single.values()}) == 3
    monkeypatch.setattr(routing, "counters", routing.Counters())
    points = study_blocking(SMALL, f_bars)
    k = len(SMALL.xi_values)
    assert points == tuple(
        point for m in range(len(MAPPINGS)) for f_bar in f_bars
        for point in single[f_bar][m * k:(m + 1) * k]
    )
    counted = routing.counters
    per_threshold = len(MAPPINGS) * k * SMALL.num_pair_draws * SMALL.num_class_draws
    assert counted.batches + counted.reused == len(f_bars) * per_threshold
    # The lowest threshold is always routed and the repeated one never is;
    # the two others route some batches and reuse others.
    assert per_threshold < counted.batches < 3 * per_threshold
    assert counted.reused > per_threshold


def test_routing_counters_see_carried_searches(monkeypatch):
    """The routing counters count every batch and request of a sweep, and an
    aware sweep carries searches from one upgrade fraction to the next."""
    monkeypatch.setattr(routing, "counters", routing.Counters())
    routing._last = None
    cfg = replace(SMALL, mapping=AWARE, f_bar=0.28, num_class_draws=4)
    sweep_xi(cfg)
    counted = routing.counters
    batches = len(cfg.xi_values) * cfg.num_pair_draws * cfg.num_class_draws
    assert (counted.batches, counted.requests) == (batches, cfg.n * batches)
    assert counted.searches > 0 and counted.carried > 0
    # Each search taken, fresh or carried, serves a route computed at once.
    assert counted.walks >= counted.searches + counted.carried


def test_blocking_work_counts_are_pinned(monkeypatch):
    """The routing work of a small default-grid blocking study, pinned.

    These counts move only when the engine or the router does different
    work, never with the machine's speed, so a change that moves them must
    update the pin and say why.  The study is small enough to fold in
    process on any machine, so one memo serves all of it.
    """
    cfg = ExperimentConfig(n=5, num_pair_draws=2, num_class_draws=3)
    # 2 mappings x 3 class draws x 26 xi x 2 pairings x 5 requests at one
    # threshold: 1,560, below the fork floor.
    assert len(cfg.resolved_xi()) == 26
    assert experiment._pool_workers(2, cfg) == 1
    monkeypatch.setattr(routing, "counters", routing.Counters())
    monkeypatch.setattr(routing, "_last", None)
    routing._fidelity.cache_clear()
    study_blocking(cfg)
    # 936 batches: 470 are taken from a lower threshold, whose allocations
    # all pass the next one, and only the 466 others are routed.
    assert routing.counters == routing.Counters(
        batches=466, requests=2330, no_path=105, below_threshold=1715, reused=470,
        searches=150, carried=573, walks=1031, certified=149,
    )
    assert routing._fidelity.cache_info().currsize == 57


def test_stress_work_counts_are_pinned(monkeypatch):
    """The routing work of a small n=10 cylinder blocking study, pinned.

    At n=10 the reverse searches do most of the work, so these counts pin
    the search sharing and carrying where it matters; like the n=5 pin,
    they move only when the engine or the router does different work.
    """
    cfg = ExperimentConfig(
        topology=CYLINDER, n=10, num_pair_draws=2, num_class_draws=3,
        xi_values=tuple(k / 20 for k in range(21)),
    )
    # 2 mappings x 3 class draws x 21 xi x 2 pairings x 10 requests at one
    # threshold: 2,520, below the fork floor.
    assert experiment._pool_workers(2, cfg) == 1
    monkeypatch.setattr(routing, "counters", routing.Counters())
    monkeypatch.setattr(routing, "_last", None)
    routing._fidelity.cache_clear()
    study_blocking(cfg, (0.53,))
    # One threshold reuses no batch.  A residual request first walks the
    # start network's route, which needs no search of its own when it
    # avoids every consumed edge, so walks outnumber the searches saved.
    assert routing.counters == routing.Counters(
        batches=252, requests=2520, no_path=34, below_threshold=2173, reused=0,
        searches=409, carried=572, walks=1445, certified=143,
    )
    assert routing._fidelity.cache_info().currsize == 159


def test_sweep_memory_is_flat_in_class_draws(in_process):
    """Batches are folded as they are served, so the traced peak of a
    blocking study plus an xi sweep does not grow with the class draws.

    The routing memos are bounded by their key spaces (endpoints and
    residual masks, class sequences), not by the draw count.  At n=3 with
    xi of 0 and 1 only, every route meets one class and the memos fill
    within 16 draws, so what could grow from 16 to 256 draws is the
    engine's own state: buffering the batches of one xi grows the peak
    nearly twentyfold.  CPython parks freed tuples, floats, lists and dicts
    on free lists, where they stay traced; filling those lists before
    tracing keeps them out of the peak.  A full garbage collection empties
    those lists, so collection is off from the parking to the last read.
    """
    cfg = replace(SMALL, n=3, xi_values=(0.0, 1.0))

    def peak(draws):
        routing._last = None
        gc.collect()
        gc.disable()
        try:
            parked = [tuple(range(size)) for size in range(1, 20) for _ in range(2000)]
            parked += [(i + 0.5, [i], {i: i}) for i in range(200)]
            del parked
            tracemalloc.start()
            study_blocking(replace(cfg, num_class_draws=draws))
            sweep_xi(replace(cfg, num_class_draws=draws, f_bar=0.3))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            gc.enable()

    peak(4)  # lazy imports and set-up
    small, large = peak(16), peak(256)
    assert abs(large - small) <= 0.1 * small


def all_studies(monkeypatch, cfg):
    """Every study on one config, and the routing counts they added."""
    monkeypatch.setattr(routing, "counters", routing.Counters())
    results = (
        sweep_xi(cfg),
        sweep_eta_l(cfg, (0.99, cfg.eta_l)),
        study_noise_awareness(replace(cfg, f_bar=0.0)),
        study_blocking(cfg, (0.0, 0.3, 0.5)),
    )
    counted = routing.counters
    return results, (
        counted.batches + counted.reused, counted.batches, counted.requests,
        counted.no_path, counted.below_threshold,
    )


@pytest.mark.parametrize("draws", [1, 2, 3, 5])
def test_studies_are_bit_identical_at_any_worker_count(monkeypatch, draws):
    """Every study gives the same results and routing counts on 1, 2 or 3
    workers, with fewer, as many or more class draws than workers: the
    blocks of class draws merge exactly and in draw order."""
    cfg = replace(SMALL, topology=GRID, mapping=AWARE, f_bar=0.3, num_class_draws=draws)
    use_workers(monkeypatch, 1)
    serial, counts = all_studies(monkeypatch, cfg)
    batches = len(cfg.xi_values) * cfg.num_pair_draws * draws * (1 + 2 + 2 + 2 * 3)
    # Every batch is routed or taken from a lower threshold, and only the
    # routed ones serve requests.
    assert counts[0] == batches and counts[1] < batches
    assert counts[2] == cfg.n * counts[1]
    assert counts[3] > 0 and counts[4] > 0
    for workers in (2, 3):
        use_workers(monkeypatch, workers)
        # Each worker folds one block of class draws, for both passes of
        # the blocking study.
        pooled = experiment._pool_workers(2, cfg)
        assert pooled == min(workers, draws)
        assert all_studies(monkeypatch, cfg) == (serial, counts)


def refuse_pool(monkeypatch):
    """Make forking a class-draw worker fail."""

    def refuse(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(experiment.os, "fork", refuse)


def test_run_trial_starts_no_pool(monkeypatch):
    """A single trial never starts a process pool, even where a study would."""
    use_workers(monkeypatch, 3)
    refuse_pool(monkeypatch)
    with pytest.raises(AssertionError, match="pool was started"):
        sweep_xi(SMALL)
    assert len(run_trial(SMALL, 0.4, 1, 2).outcomes) == SMALL.n


def test_studies_fold_in_process_while_another_thread_runs(monkeypatch):
    """A study forks no worker while this process runs a second thread,
    and gives the same results as in a pool."""
    import threading

    use_workers(monkeypatch, 2)
    cfg = replace(SMALL, f_bar=0.3)
    assert experiment._pool_workers(1, cfg) == 2
    pooled = sweep_xi(cfg)
    refuse_pool(monkeypatch)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert experiment._pool_workers(1, cfg) == 1
        assert sweep_xi(cfg) == pooled
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_a_wrapped_engine_sees_every_batch_at_any_worker_count(monkeypatch):
    """A wrapper put around ``allocate_batch``, as a tracer or profiler
    does, keeps studies in process, so it sees every batch they serve."""
    calls = []

    @functools.wraps(allocate_batch)
    def traced(graph, requests, *args):
        calls.append(len(requests))
        return allocate_batch(graph, requests, *args)

    use_workers(monkeypatch, 2)
    refuse_pool(monkeypatch)
    monkeypatch.setattr(experiment, "allocate_batch", traced)
    cfg = replace(SMALL, f_bar=0.3)
    points = study_blocking(cfg, (0.3,))
    batches = 2 * len(SMALL.xi_values) * cfg.num_pair_draws * cfg.num_class_draws
    assert calls == [cfg.n] * batches
    monkeypatch.undo()
    use_workers(monkeypatch, 2)
    assert study_blocking(cfg, (0.3,)) == points


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def fold_raises(start):
    raise ValueError(f"draws from {start} failed")


def fold_dies(start):
    os._exit(3)


@pytest.mark.parametrize("failure, error, message", [
    (fold_raises, ValueError, "draws from 5 failed"),
    (fold_dies, RuntimeError, "exited with status 3 and sent no result"),
])
def test_a_failing_worker_fails_the_study_and_leaves_no_child(
    monkeypatch, failure, error, message
):
    """The error of a fold raised in one worker, or the exit status of a
    worker that died without a result, is raised by the study, and every
    worker has been reaped by then."""
    fold = experiment._fold_histograms

    def failing(config, f_bars, draws):
        if draws.start:  # the second block, in the second worker
            failure(draws.start)
        return fold(config, f_bars, draws)

    use_workers(monkeypatch, 2)
    monkeypatch.setattr(experiment, "_fold_histograms", failing)
    assert experiment._pool_workers(1, SMALL) == 2
    with pytest.raises(error, match=message):
        sweep_xi(SMALL)
    assert_no_child_left()


def test_an_error_in_the_parent_kills_and_reaps_every_worker(monkeypatch):
    """A study interrupted while a worker still runs (here by a failure to
    read the first worker's result) kills that worker rather than wait."""
    fold = experiment._fold_histograms

    def slow(config, f_bars, draws):
        if draws.start:
            time.sleep(60)
        return fold(config, f_bars, draws)

    def interrupted(data):
        raise KeyboardInterrupt

    use_workers(monkeypatch, 2)
    monkeypatch.setattr(experiment, "_fold_histograms", slow)
    monkeypatch.setattr(experiment.pickle, "loads", interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        sweep_xi(SMALL)
    assert time.monotonic() - start < 30
    assert_no_child_left()


def test_a_pooled_study_imports_no_process_pool_machinery():
    """Forking the workers directly needs neither ``concurrent.futures``
    nor ``multiprocessing``."""
    script = (
        "import sys\n"
        "from qrepnet import experiment\n"
        "experiment._workers = lambda: 2\n"
        "experiment._MIN_POOLED_REQUESTS = 0\n"
        "config = experiment.ExperimentConfig(num_pair_draws=1, num_class_draws=4, n=3)\n"
        "assert experiment._pool_workers(1, config) == 2\n"
        "experiment.sweep_xi(config)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in\n"
        "             ('concurrent', 'multiprocessing')))\n"
    )
    src = os.path.join(os.path.dirname(experiment.__file__), os.pardir)
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
