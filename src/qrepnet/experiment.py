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

Every study reduces over one trial engine, :func:`_sweep`, which runs class
draw by class draw, walks ``xi`` upward within a draw so that routing can
carry its searches over, and serves each batch with one
:func:`~qrepnet.routing.allocate_batch` call, but for a higher threshold's
batch that provably equals the one a lower threshold served, which it
passes on.  Each study folds each batch the moment it is served into state
that does not grow with the class draws (counts, histograms of the discrete
fidelities); only the noise-awareness study keeps its samples, because its
CSV lists every one.

A large enough study folds contiguous blocks of class draws in worker
processes, one per CPU, each forked once and sending its folds back over
its own pipe (:func:`_map_draws`).  The parent merges the blocks exactly
and in draw order, so its results are the same at any worker count.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading
import warnings
from bisect import bisect_right
from collections import Counter
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass, replace
from functools import partial, reduce
from itertools import accumulate, chain, product
from math import floor, inf, isfinite, lcm
from numbers import Integral, Real
from operator import add, itemgetter

import numpy as np

from . import routing
from .fidelity import MIN_LINK_FIDELITY, MIN_NOISE_RATE, NoiseClass
from .routing import (
    DEFAULT_LQ_WEIGHT,
    BlockReason,
    PathAllocation,
    WeightMapping,
    allocate_batch,
    noise_aware_mapping,
    noise_unaware_mapping,
    path_composition,
    shuffle_requests,
)
from .topology import TOPOLOGIES, GRID, NetworkGraph, base_network

__all__ = [
    "AWARE",
    "COARSE_XI_GRID",
    "DEFAULT_ETA_L_VALUES",
    "DEFAULT_F_BAR_VALUES",
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
# Low-quality noise rates and fidelity thresholds compared when none are given.
DEFAULT_ETA_L_VALUES = (0.99, 0.8)
DEFAULT_F_BAR_VALUES = (0.53, 0.7, 0.8)

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
    aware_weight: float = DEFAULT_LQ_WEIGHT
    num_pair_draws: int = 5
    num_class_draws: int = 100
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r}")
        for name in ("n", "num_pair_draws", "num_class_draws", "seed"):
            if not isinstance(getattr(self, name), Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("eta_h", "eta_l", "link_fidelity", "f_bar", "aware_weight"):
            if not isinstance(getattr(self, name), Real):
                raise ValueError(f"{name} must be a real number, got {getattr(self, name)!r}")
        if self.n < 2:
            raise ValueError(f"core width must be at least 2, got {self.n}")
        if self.xi_values is not None:
            # A tuple, so that the frozen config hashes whatever sequence it got.
            object.__setattr__(self, "xi_values", tuple(self.xi_values))
            if not self.xi_values:
                raise ValueError("xi values, when given, must not be empty")
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
    f_bars: Sequence[float],
    pairing_indices: Sequence[int] | None = None,
    class_draws: Sequence[int] | None = None,
) -> Iterator[tuple[int, int, int, NetworkGraph, list[PathAllocation], int]]:
    """The trial engine: every batch of a config, class draw by class draw.

    Yields ``(i, j, p, graph, allocations, blocked)`` per batch the moment
    it is served, ``i``, ``j`` and ``p`` indexing ``xi_values``, ``f_bars``
    and the pairings, ``graph`` being the classed network.  Pairings are
    drawn once.  Each class draw draws its upgrade permutation and
    establishment orders, drops them once done and walks xi in ascending
    upgrade count, so each graph only lowers the node costs of the last and
    routing carries its searches over.  Each graph serves all its batches
    back to back, order by order and each order's thresholds in ascending
    order.  A threshold takes the batch served last, the same allocations
    and block count, when every fidelity that batch allocated reaches it:
    each allocation then still passes, so the residual networks are the
    same, and each blocked request is still blocked, for want of a path or
    below the lower threshold.  Every other batch is one
    :func:`~qrepnet.routing.allocate_batch` call, and :data:`routing.counters`
    counts a taken batch as ``reused``.  A block of ``class_draws`` serves
    the batches a whole run serves for them.
    """
    seed = config.seed
    base = base_network(config.topology, config.n)
    num = base.num_transport
    pairing_indices = range(config.num_pair_draws) if pairing_indices is None else pairing_indices
    class_draws = range(config.num_class_draws) if class_draws is None else class_draws
    pairs = [
        [(base.source_id(row), base.destination_id(to))
         for row, to in enumerate(draw_pairing(seed, config.n, p))]
        for p in pairing_indices
    ]
    upgrades = sorted((round(xi * num), i) for i, xi in enumerate(xi_values))
    ascending = sorted(enumerate(f_bars), key=itemgetter(1))
    hq, lq = config.hq_class(), config.lq_class()
    mapping = config.weight_mapping()
    tiers = base.classes[num:]

    for c in class_draws:
        upgrade_order = _substream(seed, _CLASS_STREAM, c).permutation(num).tolist()
        orders = [
            shuffle_requests(pairing, _substream(seed, _SHUFFLE_STREAM, p, c))
            for p, pairing in zip(pairing_indices, pairs)
        ]
        classes = [lq] * num
        for k, i in upgrades:
            for v in upgrade_order[:k]:
                classes[v] = hq
            graph = replace(base, classes=tuple(classes) + tiers)
            for p, order in enumerate(orders):
                least = -inf  # the least fidelity the last served batch allocated
                for j, f_bar in ascending:
                    if least < f_bar:
                        allocations, blocked = allocate_batch(
                            graph, order, mapping, f_bar, config.link_fidelity
                        )
                        least = min((a.fidelity for a in allocations if a.path), default=inf)
                    else:
                        routing.counters.reused += 1
                    yield i, j, p, graph, allocations, blocked


# Below this many requests at one threshold forking workers costs a study
# more than they save: the crossover measured on 2 CPUs in BENCH_10.json.
_MIN_POOLED_REQUESTS = 4_000
_ENGINE_CODE = allocate_batch.__code__


def _workers() -> int:
    """The CPUs this process may run on, the most workers a study uses.
    Called on Linux only, where workers are forked."""
    return len(os.sched_getaffinity(0))


def _pool_workers(passes: int, config: ExperimentConfig, num_xi: int) -> int:
    """The processes that fold a study of ``passes`` passes over ``num_xi``
    upgrade fractions; 1 folds it in process.

    Later thresholds take a graph's batches from a lower threshold or serve
    them from the routing memo, so the requests of one threshold measure
    the work.  Workers are forked: only on
    Linux, only while no other thread runs (a child may inherit a lock it
    holds) and only while ``allocate_batch`` is unwrapped, as a wrapper (a
    tracer, a profiler) sees only the calls made in its own process.
    """
    requests = passes * config.num_class_draws * num_xi * config.num_pair_draws * config.n
    wrapped = getattr(allocate_batch, "__code__", None) is not _ENGINE_CODE
    if requests < _MIN_POOLED_REQUESTS or sys.platform != "linux" or wrapped:
        return 1
    cpus = _workers() if threading.active_count() == 1 else 1
    return min(cpus, config.num_class_draws)


def _fold_in_child(fold: Callable[[], list], out: int) -> None:
    """Call ``fold`` in a forked child, write one pickle to the pipe end
    ``out`` and leave: what it returned and the routing counts it made, or
    the error raised and its traceback.  Never returns into the parent's
    code."""
    status = 1
    try:
        routing.counters = routing.Counters()
        try:
            payload = pickle.dumps((fold(), routing.counters))
        except BaseException as exc:  # sent to the parent, which raises it
            import traceback  # here, to keep it out of every import of qrepnet

            trace = traceback.format_exc()
            try:
                payload = pickle.dumps((exc, trace))
            except Exception:  # an error that cannot be pickled: send its text
                payload = pickle.dumps((RuntimeError(repr(exc)), trace))
        with os.fdopen(out, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def _forked(
    folds: Sequence[Callable[[], list]],
) -> tuple[list[list], list[routing.Counters]]:
    """What each of ``folds`` returns, called in a child forked for it, and
    the routing counts of each child.

    Each child is forked once, with its own pipe, and writes one pickle to
    it.  The parent reads every pipe to EOF and reaps every child; on an
    error or interrupt it kills and reaps the children still running, so
    none outlives the call.  The first worker error is raised again here.
    """
    pids: list[int] = []
    pipes = []
    try:
        for fold in folds:
            read, write = os.pipe()
            pipes.append(os.fdopen(read, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _fold_in_child(fold, write)
            finally:
                os.close(write)
            pids.append(pid)
        payloads = []
        for pipe, pid in zip(pipes, tuple(pids)):
            data = pipe.read()
            _, status = os.waitpid(pid, 0)
            pids.remove(pid)
            if data:
                payloads.append(pickle.loads(data))
            else:
                code = os.waitstatus_to_exitcode(status)
                died = RuntimeError(f"a class-draw worker exited with status {code} "
                                    "and sent no result")
                payloads.append((died, None))
    finally:
        for pipe in pipes:
            pipe.close()
        if pids:  # an error or interrupt left children running
            from signal import SIGKILL

            for pid in pids:
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
    for error, trace in payloads:
        if isinstance(error, BaseException):
            cause = RuntimeError(f"in a class-draw worker:\n{trace}") if trace else None
            raise error from cause
    return [result for result, _ in payloads], [counted for _, counted in payloads]


def _map_draws(
    fold: Callable[..., list], configs: Sequence[ExperimentConfig],
    xi_values: Sequence[float], f_bars: Sequence[float],
) -> list[list]:
    """Fold the class draws of each config, one pass of a study each.

    ``fold(config, xi_values, f_bars, draws)`` folds the batches that
    :func:`_sweep` serves for the class draws ``draws`` into a list whose
    items merge exactly with ``+``.  With ``W`` workers (see
    :func:`_pool_workers`) the ``K`` draws split into ``W`` blocks, block
    ``b`` covering ``[b K // W, (b + 1) K // W)``, and each block is folded
    for every config in turn, in a child forked once for it with its own
    pipe (:func:`_forked`), so a later config reuses the routes of earlier
    ones; the parent adds up the workers' :data:`routing.counters`.  The
    blocks merge item by item in draw order.  Passes folded by separate
    calls, as the :func:`sweep_xi` calls of :func:`sweep_eta_l` are, share
    no worker: each call forks its own, with the parent's routing memo.
    """
    draws = configs[0].num_class_draws
    workers = _pool_workers(len(configs), configs[0], len(xi_values))
    spans = [range(b * draws // workers, (b + 1) * draws // workers) for b in range(workers)]

    def block(span: range) -> list[list]:
        return [fold(config, xi_values, f_bars, span) for config in configs]

    if workers > 1:
        blocks, counted = _forked([partial(block, span) for span in spans])
        counters = routing.counters  # looked up now, in case it was replaced
        for name, value in vars(counters).items():
            setattr(counters, name, value + sum(getattr(c, name) for c in counted))
    else:
        blocks = [block(spans[0])]
    return [[reduce(add, items) for items in zip(*passes)] for passes in zip(*blocks)]


def run_trial(
    config: ExperimentConfig, xi: float, pairing_index: int, class_draw: int
) -> TrialRecord:
    """Run one full allocation batch and report the per-request outcomes."""
    if not 0.0 <= xi <= 1.0:
        raise ValueError(f"upgrade fraction must lie in [0, 1], got {xi}")
    [(_, _, _, graph, allocations, _)] = _sweep(
        config, (xi,), (config.f_bar,), (pairing_index,), (class_draw,)
    )
    hq, lq = config.hq_class(), config.lq_class()
    outcomes = []
    for a in allocations:
        theta = a.request.theta
        if a.path is None:
            outcomes.append(RequestOutcome(theta, None, 0, 0, None, a.blocked))
            continue
        counts = path_composition(graph, a.path)
        outcomes.append(RequestOutcome(
            theta, len(a.path), counts.get(hq, 0), counts.get(lq, 0), a.fidelity, None
        ))
    return TrialRecord(
        xi=xi, pairing_index=pairing_index, class_draw=class_draw, outcomes=tuple(outcomes)
    )


def _quantile(values: Sequence[float], cumulative: Sequence[int], q: float) -> float:
    """``np.quantile`` of the sample with sorted distinct ``values`` and
    ``cumulative`` counts, bit for bit: numpy's linear method, step by step."""
    n = cumulative[-1]
    h = (n - 1) * q
    if h >= n - 1:
        return values[-1]
    lo = floor(h)
    a = values[bisect_right(cumulative, lo)]
    b = values[bisect_right(cumulative, lo + 1)]
    t = h - lo
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


@dataclass(frozen=True)
class FiveNumberSummary:
    """The minimum, the quartiles and the maximum of a sample."""

    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float

    @classmethod
    def from_counts(cls, counts: Mapping[float, int]) -> "FiveNumberSummary":
        """Summarise the sample in which each value occurs ``counts[value]`` times."""
        if not counts or not all(map(isfinite, counts)):
            raise ValueError("can only summarise a non-empty sample of finite values")
        if not all(isinstance(k, Integral) and k > 0 for k in counts.values()):
            raise ValueError(f"counts must be positive whole numbers, got {counts!r}")
        values = sorted(counts)
        cumulative = list(accumulate(int(counts[v]) for v in values))
        q1, median, q3 = (_quantile(values, cumulative, q) for q in (0.25, 0.5, 0.75))
        return cls(values[0], q1, median, q3, values[-1])


@dataclass(frozen=True)
class SampleStats:
    count: int
    mean: float
    summary: FiveNumberSummary

    @classmethod
    def from_samples(cls, values: Sequence[float]) -> "SampleStats":
        return cls.from_counts(Counter(map(float, values)))

    @classmethod
    def from_counts(cls, counts: Mapping[float, int]) -> "SampleStats":
        """Stats of the sample in which each value occurs ``counts[value]`` times.

        The mean is exact, rounded once: over the values' common binary
        denominator they sum as integers, in any order of counting."""
        summary = FiveNumberSummary.from_counts(counts)
        ratios = [(value.as_integer_ratio(), int(k)) for value, k in counts.items()]
        count = sum(k for _, k in ratios)
        scale = lcm(*(q for (_, q), _ in ratios))
        total = sum(p * (scale // q) * k for (p, q), k in ratios)
        return cls(count=count, mean=total / (scale * count), summary=summary)


@dataclass(frozen=True)
class XiSummary:
    """Aggregates of all trials at one upgrade fraction."""

    xi: float
    num_requests: int
    num_blocked: int
    fidelity: SampleStats | None
    mean_path_nodes: float | None
    by_path_nodes: Mapping[int, SampleStats]

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


def _xi_summary(
    xi: float, num_requests: int, histogram: Mapping[tuple[int, float], int]
) -> XiSummary:
    """Stats of one upgrade fraction from its (path node count, fidelity)
    counts; every request the histogram lacks was blocked."""
    by_nodes: dict[int, Counter[float]] = {}
    for (nodes, fidelity), count in sorted(histogram.items()):
        by_nodes.setdefault(nodes, Counter())[fidelity] = count
    stats = {nodes: SampleStats.from_counts(counts) for nodes, counts in by_nodes.items()}
    allocated = sum(histogram.values())
    return XiSummary(
        xi, num_requests, num_requests - allocated,
        SampleStats.from_counts(sum(by_nodes.values(), Counter())) if allocated else None,
        sum(nodes * s.count for nodes, s in stats.items()) / allocated if allocated else None,
        stats,
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


def _fold_histograms(
    config: ExperimentConfig, xi_values: Sequence[float], f_bars: Sequence[float], draws: range
) -> list:
    """Per xi the requests served, then per xi the (path node count,
    fidelity) -> count histogram of the allocated ones."""
    requests = [0] * len(xi_values)
    histograms: list[Counter[tuple[int, float]]] = [Counter() for _ in xi_values]
    for i, _, _, _, allocations, _ in _sweep(config, xi_values, f_bars, None, draws):
        requests[i] += len(allocations)
        histograms[i].update((len(a.path), a.fidelity) for a in allocations if a.path)
    return requests + histograms


def sweep_xi(config: ExperimentConfig) -> SweepSummary:
    """Run the full trial grid of a config and aggregate per upgrade fraction.

    Like every study, it may fork workers to fold its class draws (Linux
    only, with more CPUs than one and no other thread running).
    """
    xi_values = config.resolved_xi()
    _warn_off_grid(xi_values, config.n)
    [merged] = _map_draws(_fold_histograms, [config], xi_values, (config.f_bar,))
    m = len(xi_values)
    return SweepSummary(config, tuple(map(_xi_summary, xi_values, merged[:m], merged[m:])))


def sweep_eta_l(
    config: ExperimentConfig,
    eta_l_values: Sequence[float] = DEFAULT_ETA_L_VALUES,
) -> tuple[tuple[float, SweepSummary], ...]:
    """Repeat the xi sweep for several low-quality noise rates.

    All sweeps share the config's seed, so pairings, establishment orders and
    upgrade draws are identical across the compared noise rates.  Every
    rate is checked before the first sweep.
    """
    configs = [replace(config, eta_l=eta_l) for eta_l in eta_l_values]
    return tuple((cfg.eta_l, sweep_xi(cfg)) for cfg in configs)


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


def _fold_samples(
    config: ExperimentConfig, xi_values: Sequence[float], f_bars: Sequence[float], draws: range
) -> list[list[float]]:
    """The allocated fidelities per (xi, theta, pairing), that index running
    fastest over pairings, each list in class-draw order."""
    n, pairings = config.n, config.num_pair_draws
    samples: list[list[float]] = [[] for _ in range(len(xi_values) * n * pairings)]
    for i, _, p, _, allocations, _ in _sweep(config, xi_values, f_bars, None, draws):
        for a in allocations:
            if a.path is not None:
                samples[(i * n + a.request.theta - 1) * pairings + p].append(a.fidelity)
    return samples


def study_noise_awareness(config: ExperimentConfig) -> tuple[ThetaProfile, ...]:
    """Compare both weight mappings by establishment position.

    Runs the same trials under each mapping (identical pairings, class draws
    and orders) and collects every allocated request's fidelity keyed by
    ``(mapping, xi, theta)``, pairing by pairing and within a pairing in
    class-draw order.  Requires a zero fidelity threshold so that the
    comparison isolates the routing weights.
    """
    if config.f_bar != 0.0:
        raise ValueError("the noise-awareness study requires f_bar = 0")
    xi_values = tuple(config.xi_values if config.xi_values is not None else COARSE_XI_GRID)
    _warn_off_grid(xi_values, config.n)
    configs = [replace(config, mapping=m, xi_values=xi_values) for m in MAPPINGS]
    k = config.num_pair_draws
    return tuple(
        ThetaProfile(mapping, xi, theta, tuple(chain.from_iterable(samples[i * k : i * k + k])))
        for mapping, samples in zip(
            MAPPINGS, _map_draws(_fold_samples, configs, xi_values, (0.0,))
        )
        for i, (xi, theta) in enumerate(product(xi_values, range(1, config.n + 1)))
    )


@dataclass(frozen=True)
class BlockingPoint:
    mapping: str
    f_bar: float
    xi: float
    blocking_probability: float


def _count_blocks(
    config: ExperimentConfig, xi_values: Sequence[float], f_bars: Sequence[float], draws: range
) -> list[int]:
    """Requests and blocks per (threshold, xi), xi running fastest."""
    counts = [0] * (2 * len(f_bars) * len(xi_values))
    for i, j, _, _, allocations, blocked in _sweep(config, xi_values, f_bars, None, draws):
        k = 2 * (j * len(xi_values) + i)
        counts[k] += len(allocations)
        counts[k + 1] += blocked
    return counts


def study_blocking(
    config: ExperimentConfig,
    f_bar_values: Sequence[float] = DEFAULT_F_BAR_VALUES,
) -> tuple[BlockingPoint, ...]:
    """Blocking probability versus xi for several fidelity thresholds.

    Each mapping is one engine pass that serves every threshold on each
    classed graph, so all thresholds share randomness and routes.  Points
    come mapping by mapping, then threshold by threshold as given, then by
    xi.
    """
    for f_bar in f_bar_values:
        replace(config, f_bar=f_bar)  # validates the threshold
    xi_values = config.resolved_xi()
    _warn_off_grid(xi_values, config.n)
    configs = [replace(config, mapping=m) for m in MAPPINGS]
    return tuple(
        BlockingPoint(mapping, f_bar, xi, blocked / requests)
        for mapping, counts in zip(
            MAPPINGS, _map_draws(_count_blocks, configs, xi_values, f_bar_values)
        )
        for (f_bar, xi), requests, blocked in zip(
            product(f_bar_values, xi_values), counts[::2], counts[1::2]
        )
    )
