"""Monte-Carlo drivers for the routing studies.

A single trial fixes a source-destination pairing, a noise-class draw and an
establishment order, then allocates the whole batch of requests.  Sweeps
repeat trials over a grid of upgrade fractions ``xi`` with a configurable
number of pairing draws and class draws per point.

Randomness is split into named substreams derived from one root seed, keyed
by purpose and draw index, so any trial can be reproduced in isolation and
trials may run in any order.  The class-draw substream is deliberately keyed
by the draw index only, not by ``xi``: each draw fixes one permutation of
the transport nodes and every ``xi`` upgrades a prefix of it.  Sweeps over
``xi`` therefore use common random numbers, and upgraded node sets grow
monotonically with ``xi`` within a draw.  Pairings and establishment orders
are likewise shared across ``xi`` and across weight mappings, which makes
curve comparisons paired rather than independent.

Every study reduces over one trial engine, :func:`_sweep`.  It draws each
pairing, upgrade permutation and establishment order once, and serves every
batch with :func:`~qrepnet.routing.allocate_batch` through one memo, which
holds the routes, each class draw's node costs and the fidelity of each
class sequence a route can meet, so each allocated route is scored once.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator, Mapping, MutableMapping, Sequence
from dataclasses import dataclass, replace
from functools import lru_cache
from math import isfinite

import numpy as np

from .fidelity import MIN_LINK_FIDELITY, MIN_NOISE_RATE, NoiseClass
from .routing import (
    BlockReason,
    PathAllocation,
    WeightMapping,
    allocate_batch,
    noise_aware_mapping,
    noise_unaware_mapping,
    path_composition,
    shuffle_requests,
)
from .topology import TOPOLOGIES, GRID, NetworkGraph, build_network

__all__ = [
    "AWARE",
    "COARSE_XI_GRID",
    "DEFAULT_SEED",
    "MAPPINGS",
    "UNAWARE",
    "BlockingPoint",
    "ExperimentConfig",
    "FiveNumberSummary",
    "RequestOutcome",
    "SampleStats",
    "SweepSummary",
    "ThetaProfile",
    "TrialRecord",
    "XiSummary",
    "default_xi_grid",
    "draw_pairing",
    "run_trial",
    "study_blocking",
    "study_noise_awareness",
    "sweep_eta_l",
    "sweep_xi",
]

DEFAULT_SEED = 12345

UNAWARE = "unaware"
AWARE = "aware"
MAPPINGS = (UNAWARE, AWARE)

# Coarse grid used by the noise-awareness study when no xi values are given.
COARSE_XI_GRID = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)

_PAIRING_STREAM = 1
_CLASS_STREAM = 2
_SHUFFLE_STREAM = 3

HQ_LABEL = "HQ"
LQ_LABEL = "LQ"


def default_xi_grid(n: int) -> tuple[float, ...]:
    """All multiples of ``1 / n**2`` from 0 to 1, the native upgrade fractions."""
    num = n * n
    return tuple(k / num for k in range(num + 1))


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything that determines a study, including the root seed.

    ``xi_values`` of ``None`` means the study's default grid.  ``mapping``
    selects the routing weight mapping; ``aware_weight`` is the penalty the
    noise-aware mapping puts on low-quality nodes.
    """

    topology: str = GRID
    n: int = 5
    xi_values: tuple[float, ...] | None = None
    eta_h: float = 0.999
    eta_l: float = 0.8
    link_fidelity: float = 0.975
    f_bar: float = 0.0
    mapping: str = UNAWARE
    aware_weight: float = 100.0
    num_pair_draws: int = 5
    num_class_draws: int = 100
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.n < 2:
            raise ValueError(f"core width must be at least 2, got {self.n}")
        if self.xi_values is not None:
            for xi in self.xi_values:
                if not 0.0 <= xi <= 1.0:
                    raise ValueError(f"upgrade fraction must lie in [0, 1], got {xi}")
        for name, eta in (("eta_h", self.eta_h), ("eta_l", self.eta_l)):
            if not MIN_NOISE_RATE < eta <= 1.0:
                raise ValueError(f"{name} must lie in ({MIN_NOISE_RATE}, 1], got {eta}")
        if not MIN_LINK_FIDELITY < self.link_fidelity <= 1.0:
            raise ValueError(
                f"link fidelity must lie in ({MIN_LINK_FIDELITY}, 1], got {self.link_fidelity}"
            )
        if not 0.0 <= self.f_bar <= 1.0:
            raise ValueError(f"fidelity threshold must lie in [0, 1], got {self.f_bar}")
        if self.mapping not in MAPPINGS:
            raise ValueError(f"unknown weight mapping {self.mapping!r}")
        if not (isfinite(self.aware_weight) and self.aware_weight > 0.0):
            raise ValueError(
                f"aware weight must be positive and finite, got {self.aware_weight}"
            )
        if self.num_pair_draws < 1 or self.num_class_draws < 1:
            raise ValueError("draw counts must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    def resolved_xi(self) -> tuple[float, ...]:
        if self.xi_values is not None:
            return self.xi_values
        return default_xi_grid(self.n)

    def hq_class(self) -> NoiseClass:
        return NoiseClass(HQ_LABEL, self.eta_h)

    def lq_class(self) -> NoiseClass:
        return NoiseClass(LQ_LABEL, self.eta_l)

    def weight_mapping(self) -> WeightMapping:
        if self.mapping == AWARE:
            return noise_aware_mapping(self.eta_l, self.aware_weight)
        return noise_unaware_mapping()


def _substream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def draw_pairing(seed: int, n: int, pairing_index: int) -> tuple[int, ...]:
    """The ``pairing_index``-th source-to-destination row bijection for a seed."""
    rng = _substream(seed, _PAIRING_STREAM, pairing_index)
    return tuple(int(x) for x in rng.permutation(n))


def _class_rng(seed: int, class_draw: int) -> np.random.Generator:
    return _substream(seed, _CLASS_STREAM, class_draw)


def _shuffle_rng(seed: int, pairing_index: int, class_draw: int) -> np.random.Generator:
    return _substream(seed, _SHUFFLE_STREAM, pairing_index, class_draw)


@lru_cache(maxsize=8)
def _base_graph(topology: str, n: int) -> NetworkGraph:
    return build_network(topology, n)


def _pairs(graph: NetworkGraph, permutation: Sequence[int]) -> list[tuple[int, int]]:
    return [
        (graph.source_id(row), graph.destination_id(int(permutation[row])))
        for row in range(graph.n)
    ]


@dataclass(frozen=True)
class RequestOutcome:
    """Per-request result of one trial; blocked requests carry no path data."""

    theta: int
    path_node_count: int | None
    n_h: int
    n_l: int
    fidelity: float | None
    blocked: BlockReason | None


@dataclass(frozen=True)
class TrialRecord:
    xi: float
    pairing_index: int
    class_draw: int
    outcomes: tuple[RequestOutcome, ...]

    @property
    def num_blocked(self) -> int:
        return sum(1 for o in self.outcomes if o.blocked is not None)


def _sweep(
    config: ExperimentConfig,
    xi_values: Sequence[float],
    pairing_indices: Sequence[int] | None = None,
    class_draws: Sequence[int] | None = None,
    path_cache: MutableMapping | None = None,
) -> Iterator[tuple[float, Iterator[tuple[NetworkGraph, list[PathAllocation]]]]]:
    """The trial engine: every batch of a config, grouped by upgrade fraction.

    Yields ``(xi, batches)`` per upgrade fraction in order; ``batches`` yields
    ``(graph, allocations)`` per (pairing, class draw), pairings outermost,
    with ``graph`` the classed network and ``allocations`` the batch served
    by :func:`~qrepnet.routing.allocate_batch`.  Pairings, upgrade
    permutations and establishment orders are drawn once and shared by every
    ``xi``.  All batches of one (xi, class draw) share one class tuple and
    are served one after another, so node costs are evaluated once per
    class draw; routes and fidelities are memoised in ``path_cache`` (a memo
    local to the call when ``None``).
    """
    seed = config.seed
    base = _base_graph(config.topology, config.n)
    num = base.num_transport
    pairing_indices = range(config.num_pair_draws) if pairing_indices is None else pairing_indices
    class_draws = range(config.num_class_draws) if class_draws is None else class_draws
    upgrade_orders = [
        [int(v) for v in _class_rng(seed, c).permutation(num)] for c in class_draws
    ]
    orders = []
    for p in pairing_indices:
        pairs = _pairs(base, draw_pairing(seed, config.n, p))
        orders.append([shuffle_requests(pairs, _shuffle_rng(seed, p, c)) for c in class_draws])
    hq, lq = config.hq_class(), config.lq_class()
    mapping = config.weight_mapping()
    tiers = base.classes[num:]
    memo = {} if path_cache is None else path_cache

    def batches(k: int) -> Iterator[tuple[NetworkGraph, list[PathAllocation]]]:
        # Served class draw by class draw, so consecutive batches share their
        # graph's node costs, and yielded pairings outermost.
        served = [[] for _ in orders]
        for c, upgrade_order in enumerate(upgrade_orders):
            classes = [lq] * num
            for v in upgrade_order[:k]:
                classes[v] = hq
            graph = replace(base, classes=tuple(classes) + tiers)
            for pairing_orders, pairing_served in zip(orders, served):
                allocations, _ = allocate_batch(
                    graph, pairing_orders[c], mapping, config.f_bar, config.link_fidelity, memo
                )
                pairing_served.append((graph, allocations))
        for pairing_served in served:
            yield from pairing_served

    for xi in xi_values:
        yield xi, batches(round(xi * num))


def run_trial(
    config: ExperimentConfig, xi: float, pairing_index: int, class_draw: int
) -> TrialRecord:
    """Run one full allocation batch and report the per-request outcomes."""
    if not 0.0 <= xi <= 1.0:
        raise ValueError(f"upgrade fraction must lie in [0, 1], got {xi}")
    _, batches = next(_sweep(config, (xi,), (pairing_index,), (class_draw,)))
    graph, allocations = next(batches)
    hq, lq = config.hq_class(), config.lq_class()
    outcomes = []
    for a in allocations:
        theta = a.request.theta
        if a.path is None:
            outcomes.append(RequestOutcome(theta, None, 0, 0, None, a.blocked))
            continue
        counts = path_composition(graph, a.path).class_counts
        outcomes.append(RequestOutcome(
            theta, len(a.path), counts.get(hq, 0), counts.get(lq, 0), a.fidelity, None
        ))
    return TrialRecord(
        xi=xi, pairing_index=pairing_index, class_draw=class_draw, outcomes=tuple(outcomes)
    )


@dataclass(frozen=True)
class FiveNumberSummary:
    """Box-plot numbers: quartiles plus Tukey whiskers at 1.5 IQR fences."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    lower_whisker: float
    upper_whisker: float
    num_outliers: int

    @classmethod
    def from_samples(cls, values: Sequence[float]) -> "FiveNumberSummary":
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            raise ValueError("cannot summarise an empty sample")
        q1, median, q3 = (float(q) for q in np.quantile(arr, (0.25, 0.5, 0.75)))
        iqr = q3 - q1
        inside = arr[(arr >= q1 - 1.5 * iqr) & (arr <= q3 + 1.5 * iqr)]
        return cls(
            minimum=float(arr.min()),
            q1=q1,
            median=median,
            q3=q3,
            maximum=float(arr.max()),
            lower_whisker=float(inside.min()),
            upper_whisker=float(inside.max()),
            num_outliers=int(arr.size - inside.size),
        )


@dataclass(frozen=True)
class SampleStats:
    count: int
    mean: float
    summary: FiveNumberSummary

    @classmethod
    def from_samples(cls, values: Sequence[float]) -> "SampleStats":
        arr = np.asarray(values, dtype=float)
        return cls(
            count=int(arr.size),
            mean=float(arr.mean()),
            summary=FiveNumberSummary.from_samples(arr),
        )


@dataclass(frozen=True)
class XiSummary:
    """Aggregates of all trials at one upgrade fraction."""

    xi: float
    num_requests: int
    num_blocked: int
    fidelity: SampleStats | None
    mean_path_nodes: float | None
    by_path_nodes: Mapping[int, SampleStats]
    by_theta: Mapping[int, SampleStats]

    @property
    def blocking_probability(self) -> float:
        return self.num_blocked / self.num_requests


@dataclass(frozen=True)
class SweepSummary:
    config: ExperimentConfig
    per_xi: tuple[XiSummary, ...]

    @property
    def overall_blocking_probability(self) -> float:
        total = sum(x.num_requests for x in self.per_xi)
        return sum(x.num_blocked for x in self.per_xi) / total

    @property
    def overall_mean_fidelity(self) -> float | None:
        total = 0
        acc = 0.0
        for x in self.per_xi:
            if x.fidelity is not None:
                acc += x.fidelity.mean * x.fidelity.count
                total += x.fidelity.count
        return acc / total if total else None

    @property
    def overall_mean_path_nodes(self) -> float | None:
        total = 0
        acc = 0.0
        for x in self.per_xi:
            allocated = x.num_requests - x.num_blocked
            if x.mean_path_nodes is not None:
                acc += x.mean_path_nodes * allocated
                total += allocated
        return acc / total if total else None


class _XiAccumulator:
    """Collects the served requests of one xi and folds them into stats."""

    def __init__(self, xi: float) -> None:
        self.xi = xi
        self.num_requests = 0
        self.num_blocked = 0
        self.fidelities: list[float] = []
        self.path_nodes: list[int] = []
        self.thetas: list[int] = []

    def add(self, allocations: Sequence[PathAllocation]) -> None:
        self.num_requests += len(allocations)
        for a in allocations:
            if a.path is None:
                self.num_blocked += 1
                continue
            self.fidelities.append(a.fidelity)
            self.path_nodes.append(len(a.path))
            self.thetas.append(a.request.theta)

    def summary(self) -> XiSummary:
        fidelities = np.asarray(self.fidelities, dtype=float)

        def grouped(keys: list[int]) -> dict[int, SampleStats]:
            # Boolean selection keeps each group's samples in serving order.
            column = np.asarray(keys)
            return {
                int(k): SampleStats.from_samples(fidelities[column == k])
                for k in np.unique(column)
            }

        return XiSummary(
            xi=self.xi,
            num_requests=self.num_requests,
            num_blocked=self.num_blocked,
            fidelity=SampleStats.from_samples(fidelities) if self.fidelities else None,
            mean_path_nodes=(
                float(np.mean(self.path_nodes)) if self.path_nodes else None
            ),
            by_path_nodes=grouped(self.path_nodes),
            by_theta=grouped(self.thetas),
        )


def _warn_off_grid(xi_values: Sequence[float], n: int) -> None:
    num = n * n
    for xi in xi_values:
        k = xi * num
        if abs(k - round(k)) > 1e-9:
            warnings.warn(
                f"xi={xi} is not a multiple of 1/{num}; "
                f"the upgraded node count rounds to {round(k)}",
                stacklevel=3,
            )


def sweep_xi(
    config: ExperimentConfig,
    path_cache: MutableMapping | None = None,
) -> SweepSummary:
    """Run the full trial grid of a config and aggregate per upgrade fraction.

    ``path_cache`` optionally shares route memoisation across calls; its keys
    fully describe each routing problem, so any sweeps may share one.
    """
    xi_values = config.resolved_xi()
    _warn_off_grid(xi_values, config.n)
    per_xi = []
    for xi, batches in _sweep(config, xi_values, path_cache=path_cache):
        accumulator = _XiAccumulator(xi)
        for _, allocations in batches:
            accumulator.add(allocations)
        per_xi.append(accumulator.summary())
    return SweepSummary(config=config, per_xi=tuple(per_xi))


def sweep_eta_l(
    config: ExperimentConfig,
    eta_l_values: Sequence[float] = (0.99, 0.8),
) -> tuple[tuple[float, SweepSummary], ...]:
    """Repeat the xi sweep for several low-quality noise rates.

    All sweeps share the config's seed, so pairings, establishment orders and
    upgrade draws are identical across the compared noise rates.
    """
    return tuple(
        (eta_l, sweep_xi(replace(config, eta_l=eta_l))) for eta_l in eta_l_values
    )


@dataclass(frozen=True)
class ThetaProfile:
    """All fidelity samples of one establishment position at one study point."""

    mapping: str
    xi: float
    theta: int
    fidelities: tuple[float, ...]

    @property
    def count(self) -> int:
        return len(self.fidelities)

    @property
    def mean(self) -> float:
        return float(np.mean(self.fidelities))


def study_noise_awareness(config: ExperimentConfig) -> tuple[ThetaProfile, ...]:
    """Compare both weight mappings by establishment position.

    Runs the same trials under each mapping (identical pairings, class draws
    and orders) and collects every allocated request's fidelity keyed by
    ``(mapping, xi, theta)``.  Requires a zero fidelity threshold so that the
    comparison isolates the routing weights.
    """
    if config.f_bar != 0.0:
        raise ValueError("the noise-awareness study requires f_bar = 0")
    xi_values = config.xi_values if config.xi_values is not None else COARSE_XI_GRID
    _warn_off_grid(xi_values, config.n)
    profiles: list[ThetaProfile] = []
    for mapping in MAPPINGS:
        cfg = replace(config, mapping=mapping, xi_values=tuple(xi_values))
        for xi, batches in _sweep(cfg, xi_values):
            samples: dict[int, list[float]] = {t: [] for t in range(1, config.n + 1)}
            for _, allocations in batches:
                for a in allocations:
                    if a.path is not None:
                        samples[a.request.theta].append(a.fidelity)
            profiles.extend(
                ThetaProfile(mapping=mapping, xi=xi, theta=theta, fidelities=tuple(fidelities))
                for theta, fidelities in samples.items()
            )
    return tuple(profiles)


@dataclass(frozen=True)
class BlockingPoint:
    mapping: str
    f_bar: float
    xi: float
    blocking_probability: float


def study_blocking(
    config: ExperimentConfig,
    f_bar_values: Sequence[float] = (0.53, 0.7, 0.8),
) -> tuple[BlockingPoint, ...]:
    """Blocking probability versus xi for several fidelity thresholds.

    Runs both weight mappings for every threshold on shared randomness; one
    route memo is reused across all sweeps since its keys fully describe the
    routing problem.
    """
    cache: dict = {}
    points: list[BlockingPoint] = []
    for mapping in MAPPINGS:
        for f_bar in f_bar_values:
            summary = sweep_xi(
                replace(config, mapping=mapping, f_bar=f_bar), path_cache=cache
            )
            points.extend(
                BlockingPoint(
                    mapping=mapping,
                    f_bar=f_bar,
                    xi=x.xi,
                    blocking_probability=x.blocking_probability,
                )
                for x in summary.per_xi
            )
    return tuple(points)
