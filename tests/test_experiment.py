"""Tests for the Monte-Carlo sweep drivers and their randomness contract."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from qrepnet import (
    AWARE,
    CYLINDER,
    GRID,
    UNAWARE,
    BlockReason,
    ExperimentConfig,
    FiveNumberSummary,
    SampleStats,
    default_xi_grid,
    draw_pairing,
    run_trial,
    study_blocking,
    study_noise_awareness,
    sweep_eta_l,
    assign_classes,
    build_network,
    end_to_end_fidelity,
    path_composition,
    sweep_xi,
    two_class_fidelity,
)
from qrepnet.routing import _fidelity_scorer, allocate_batch, _palette, cheapest_route, network_frame

SMALL = ExperimentConfig(
    topology=CYLINDER, num_pair_draws=2, num_class_draws=10, xi_values=(0.0, 0.4, 0.8, 1.0)
)


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


def test_draw_pairing_is_a_bijection_and_reproducible():
    seen = set()
    for p in range(5):
        perm = draw_pairing(12345, 5, p)
        assert sorted(perm) == list(range(5))
        assert perm == draw_pairing(12345, 5, p)
        seen.add(perm)
    assert len(seen) > 1


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

    The sweep takes a re-scoring shortcut when routing cannot depend on the
    class draw; this pins its records to the general path, establishment
    position by establishment position.
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
        got, want = xi_summary.fidelity.summary, FiveNumberSummary.from_samples(samples)
        assert (got.minimum, got.q1, got.median, got.q3, got.maximum) == (
            want.minimum, want.q1, want.median, want.q3, want.maximum,
        )
        assert xi_summary.fidelity.mean == pytest.approx(np.mean(samples), abs=1e-13)


def test_aware_unit_weight_detour_matches_unaware():
    """With the detour weight forced to 1 both mappings rank paths alike,
    but the aware configuration goes through the general routing path; the
    resulting statistics must match the shortcut exactly."""
    fast = sweep_xi(SMALL)
    slow = sweep_xi(replace(SMALL, mapping=AWARE, aware_weight=1.0))
    for a, b in zip(fast.per_xi, slow.per_xi):
        assert a.num_blocked == b.num_blocked
        assert a.fidelity.count == b.fidelity.count
        ga, gb = a.fidelity.summary, b.fidelity.summary
        assert (ga.minimum, ga.q1, ga.median, ga.q3, ga.maximum) == (
            gb.minimum, gb.q1, gb.median, gb.q3, gb.maximum,
        )
        assert a.fidelity.mean == pytest.approx(b.fidelity.mean, abs=1e-13)
        assert dict(a.by_theta).keys() == dict(b.by_theta).keys()


def test_mean_fidelity_is_monotone_in_xi():
    """Upgraded sets are nested along xi within each class draw, so every
    fidelity sample, and hence the mean, can only improve with xi."""
    summary = sweep_xi(replace(SMALL, xi_values=tuple(k / 25 for k in range(26))))
    means = [x.fidelity.mean for x in summary.per_xi]
    for lo, hi in zip(means, means[1:]):
        assert hi >= lo - 1e-12
    assert means[-1] > means[0]
    medians = [x.fidelity.summary.median for x in summary.per_xi]
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
        assert x.fidelity.summary.median == pytest.approx(
            ref.fidelity.summary.median, abs=1e-12
        )


def test_sweep_is_reproducible():
    a = sweep_xi(SMALL)
    b = sweep_xi(SMALL)
    assert a.per_xi == b.per_xi


def test_off_grid_xi_warns():
    cfg = replace(SMALL, xi_values=(0.3,), num_class_draws=2)
    with pytest.warns(UserWarning, match="not a multiple"):
        sweep_xi(cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sweep_xi(replace(SMALL, num_class_draws=2))


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


def test_memoised_scorer_equals_scoring_the_composition():
    """The class-sequence fidelity memo is exact, not approximate.

    ``end_to_end_fidelity`` multiplies class factors in the order the path
    meets the classes, so routes that meet a high-quality node first and
    routes that meet a low-quality node first must both reproduce it bit
    for bit, on a memo miss and on a hit, with the memo shared by graphs
    of different class draws.
    """
    cfg = ExperimentConfig(topology=CYLINDER, n=5)
    hq, lq = cfg.hq_class(), cfg.lq_class()
    rng = np.random.default_rng(404)
    base = build_network(CYLINDER, 5)
    frame, _ = network_frame(base)
    memos = {}
    firsts = set()
    for xi in (0.2, 0.48, 0.76):
        classed = assign_classes(base, xi, hq, lq, rng)
        palette, codes = _palette(classed)
        memo = memos.setdefault(palette, {})
        score = _fidelity_scorer(palette, codes, cfg.link_fidelity, memo)
        for _ in range(60):
            costs = tuple(int(c) for c in rng.integers(1, 9, base.num_transport)) + (0,) * 10
            source = base.source_id(int(rng.integers(5)))
            destination = base.destination_id(int(rng.integers(5)))
            route = cheapest_route(frame, costs, source, destination, 0)
            want = end_to_end_fidelity(path_composition(classed, route.path), cfg.link_fidelity)
            assert score(route) == want
            assert score(route) == want
            firsts.add(classed.classes[route.path[1]])
    assert firsts == {hq, lq}


def test_every_sweep_batch_is_served_by_allocate_batch(monkeypatch):
    """Sweeps serve each (xi, pairing, class draw) batch with one call of the
    public batch router, so tracing that function sees every batch."""
    import qrepnet.experiment as experiment

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


def test_shared_path_cache_changes_nothing():
    cfg = replace(SMALL, mapping=AWARE, num_class_draws=4)
    shared = {}
    for f_bar in (0.0, 0.3, 0.0):
        fresh = sweep_xi(replace(cfg, f_bar=f_bar))
        cached = sweep_xi(replace(cfg, f_bar=f_bar), path_cache=shared)
        assert cached.per_xi == fresh.per_xi
    assert shared


def test_stats_helpers():
    s = SampleStats.from_samples([1.0, 2.0, 3.0, 4.0, 100.0])
    assert s.count == 5
    assert s.summary.maximum == 100.0
    assert s.summary.upper_whisker == 4.0
    assert s.summary.num_outliers == 1
    with pytest.raises(ValueError):
        FiveNumberSummary.from_samples([])
