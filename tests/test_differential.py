"""Whole studies against a memo-free reference engine, over fixed random configs.

Differential testing (W. M. McKeeman, "Differential Testing for Software",
Digital Technical Journal 10(1), 1998): every speed-up of the trial engine
and the router is a memo or a reuse rule, and none of them may change a
result.  The reference below keeps no memo and reuses nothing.  It classes
each graph through ``assign_classes``, serves each batch by the
exhaustive ``reference_batch`` of ``oracles.py`` and serves every
threshold, xi, pairing and class draw on its own.  Only the random draws
are shared with the engine, by design: they are not under test.
"""

import functools
import itertools
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from qrepnet import (
    CYLINDER,
    GRID,
    MAPPINGS,
    BlockingPoint,
    ExperimentConfig,
    SampleStats,
    SweepSummary,
    ThetaProfile,
    XiSummary,
    assign_classes,
    build_network,
    draw_pairing,
    shuffle_requests,
    study_blocking,
    study_noise_awareness,
    sweep_xi,
)
from qrepnet import experiment, routing

from oracles import reference_batch


@functools.cache
def reference_batches(config, xi):
    """``(p, theta, path, fidelity)`` of every request of ``config`` at
    ``xi``, class draw by class draw, then pairing by pairing, then in
    establishment order; a blocked request has no path and no fidelity."""
    hq, lq = config.hq_class(), config.lq_class()
    mapping = config.weight_mapping()
    base = build_network(config.topology, config.n)
    served = []
    for c in range(config.num_class_draws):
        graph = assign_classes(base, xi, hq, lq, experiment._substream(config.seed, 2, c))
        for p in range(config.num_pair_draws):
            pairs = [
                (graph.source_id(row), graph.destination_id(to))
                for row, to in enumerate(draw_pairing(config.seed, config.n, p))
            ]
            requests = shuffle_requests(pairs, experiment._substream(config.seed, 3, p, c))
            allocations, _ = reference_batch(
                graph, requests, mapping, config.f_bar, config.link_fidelity, hq, lq
            )
            served.extend((p, a.request.theta, a.path, a.fidelity) for a in allocations)
    return served


def reference_stats(values):
    """Count, exact mean rounded once, and ``np.quantile`` quartiles."""
    q1, median, q3 = (float(q) for q in np.quantile(values, (0.25, 0.5, 0.75)))
    return SampleStats(
        len(values),
        float(sum(map(Fraction, values)) / len(values)),
        min(values), q1, median, q3, max(values),
    )


def reference_blocking(config, f_bars):
    points = []
    for mapping, f_bar, xi in itertools.product(MAPPINGS, f_bars, config.resolved_xi()):
        served = reference_batches(replace(config, mapping=mapping, f_bar=f_bar), xi)
        blocked = sum(path is None for _, _, path, _ in served)
        points.append(BlockingPoint(mapping, f_bar, xi, blocked / len(served)))
    return tuple(points)


def reference_summary(xi, served):
    """The stats of the requests ``served``, as ``reference_batches`` lists them."""
    allocated = [(len(path), f) for _, _, path, f in served if path is not None]
    by_nodes = {
        nodes: reference_stats([f for k, f in allocated if k == nodes])
        for nodes in sorted({k for k, _ in allocated})
    }
    return XiSummary(
        xi, len(served), len(served) - len(allocated),
        reference_stats([f for _, f in allocated]) if allocated else None,
        sum(k for k, _ in allocated) / len(allocated) if allocated else None,
        by_nodes,
    )


def reference_sweep(config):
    """Each xi's stats, then the stats of every request of every xi pooled."""
    xi_values = config.resolved_xi()
    served = [reference_batches(config, xi) for xi in xi_values]
    return SweepSummary(
        config,
        tuple(map(reference_summary, xi_values, served)),
        reference_summary(None, list(itertools.chain.from_iterable(served))),
    )


def reference_noise_awareness(config):
    """Each (mapping, xi, theta)'s fidelities, pairing by pairing and within
    a pairing in class-draw order."""
    profiles = []
    for mapping, xi in itertools.product(MAPPINGS, config.xi_values):
        served = reference_batches(replace(config, mapping=mapping), xi)
        for theta in range(1, config.n + 1):
            fidelities = [
                f for q in range(config.num_pair_draws)
                for p, t, path, f in served if (p, t) == (q, theta) and path is not None
            ]
            profiles.append(ThetaProfile(mapping, xi, theta, tuple(fidelities)))
    return tuple(profiles)


# The noise rates (eta_h, eta_l): the low-quality class below, equal to and
# above the high-quality one.
ETAS = ((0.999, 0.8), (0.9, 0.9), (0.85, 0.97), (0.95, 0.75))
AWARE_WEIGHTS = (0.1, 1.0, 2.5, 100.0)
LINK_FIDELITIES = (0.9, 0.975, 1.0)
THRESHOLDS = (0.0, 0.3, 0.5, 0.53, 0.6, 0.7, 0.8)


def configs(count):
    """``count`` configs with their blocking thresholds.  Topology, width,
    noise rates, aware weight and link fidelity cycle, so every value of
    each occurs; the draws, xi values and thresholds are random, with
    xi unsorted, repeats of xi and of thresholds, and a zero threshold in
    every other config."""
    rng = random.Random(21)
    drawn = []
    for k in range(count):
        n = 2 + k % 3
        xi = [rng.randint(0, n * n) / (n * n) for _ in range(rng.randint(1, 4))]
        if k % 3 == 0:
            xi.append(xi[0])
        f_bars = rng.sample(THRESHOLDS[1:], rng.randint(1, 2))
        if k % 2 == 0:
            f_bars.insert(rng.randint(0, len(f_bars)), 0.0)
        if k % 4 == 1:
            f_bars.append(f_bars[0])
        eta_h, eta_l = ETAS[k % len(ETAS)]
        config = ExperimentConfig(
            topology=(GRID, CYLINDER)[k % 2], n=n, xi_values=tuple(xi),
            eta_h=eta_h, eta_l=eta_l, link_fidelity=LINK_FIDELITIES[k % 3],
            f_bar=rng.choice(f_bars), aware_weight=AWARE_WEIGHTS[k // 2 % 4],
            num_pair_draws=rng.randint(1, 3), num_class_draws=rng.randint(1, 5),
            seed=rng.randrange(2**32),
        )
        drawn.append((config, tuple(f_bars)))
    return drawn


CONFIGS = configs(24)


def test_the_configs_cover_every_case():
    assert {c.topology for c, _ in CONFIGS} == {GRID, CYLINDER}
    assert {c.n for c, _ in CONFIGS} == {2, 3, 4}
    assert {(c.eta_h, c.eta_l) for c, _ in CONFIGS} == set(ETAS)
    assert {(c.topology, c.aware_weight) for c, _ in CONFIGS} == set(
        itertools.product((GRID, CYLINDER), AWARE_WEIGHTS)
    )
    assert {c.link_fidelity for c, _ in CONFIGS} == set(LINK_FIDELITIES)
    assert any(len(set(f_bars)) < len(f_bars) for _, f_bars in CONFIGS)
    assert any(0.0 in f_bars for _, f_bars in CONFIGS)
    assert any(list(c.xi_values) != sorted(c.xi_values) for c, _ in CONFIGS)
    assert any(len(set(c.xi_values)) < len(c.xi_values) for c, _ in CONFIGS)
    assert any(c.num_class_draws > 1 for c, _ in CONFIGS)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("index", range(len(CONFIGS)))
def test_studies_match_the_reference_engine(monkeypatch, index, workers):
    """Each study gives the memo-free reference's results exactly, in
    process and with its class draws split over two forked workers, and so
    does a last sweep at another link fidelity, which meets the memo the
    studies left on the same network."""
    config, f_bars = CONFIGS[index]
    monkeypatch.setattr(experiment, "_workers", lambda: workers)
    monkeypatch.setattr(experiment, "_MIN_POOLED_REQUESTS", 0)
    routing._last = None
    assert study_blocking(config, f_bars) == reference_blocking(config, f_bars)
    assert sweep_xi(config) == reference_sweep(config)
    aware = replace(config, f_bar=0.0)
    assert study_noise_awareness(aware) == reference_noise_awareness(aware)
    other = replace(config, link_fidelity=LINK_FIDELITIES[index % 3 - 1])
    assert sweep_xi(other) == reference_sweep(other)
