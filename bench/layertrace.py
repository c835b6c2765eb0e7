"""Outside-in layer trace of one qrepnet run (used by ``child.py`` in trace mode).

The tracer wraps the public functions of each ``qrepnet`` module (the layers)
from outside, in every ``qrepnet`` module namespace that binds them, plus
``numpy.random.default_rng``.  Nothing under ``src/`` is edited.  A function
that no longer exists is reported as absent instead of failing the run.

Memory stays bounded by the number of batches: only batch-granularity calls
(``main``, the study and sweep functions, ``run_trial``, ``allocate_batch``)
record a span with its parent id.  Per-request calls only add to in-memory
counters and summed time.

Self time of a wrapped call is its duration minus the durations of the
wrapped calls made inside it, so per-layer self times add up to the traced
wall time of ``main`` minus the time spent in unwrapped callers.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from dataclasses import dataclass, field

# (layer, module, qualified name, records a span).  Layers are the modules
# of src/qrepnet/ plus "rng" for the numpy substream constructor; the
# "aggregate" layer is the part of experiment that folds samples into stats.
TARGETS = (
    ("cli", "qrepnet.cli", "main", True),
    ("experiment", "qrepnet.experiment", "study_blocking", True),
    ("experiment", "qrepnet.experiment", "study_noise_awareness", True),
    ("experiment", "qrepnet.experiment", "sweep_eta_l", True),
    ("experiment", "qrepnet.experiment", "sweep_xi", True),
    ("experiment", "qrepnet.experiment", "run_trial", True),
    ("aggregate", "qrepnet.experiment", "SampleStats.from_samples", False),
    ("routing", "qrepnet.routing", "allocate_batch", True),
    ("routing", "qrepnet.routing", "shuffle_requests", False),
    ("routing", "qrepnet.routing", "path_composition", False),
    ("fidelity", "qrepnet.fidelity", "end_to_end_fidelity", False),
    ("fidelity", "qrepnet.fidelity", "two_class_fidelity", False),
    ("topology", "qrepnet.topology", "assign_classes", False),
    ("topology", "qrepnet.topology", "NetworkGraph.copy", False),
    ("rng", "numpy.random", "default_rng", False),
)

# Studies whose result holds only per-point aggregates, not request counts.
STUDIES = ("study_blocking", "study_noise_awareness")


@dataclass
class FunctionStats:
    layer: str
    calls: int = 0
    self_s: float = 0.0


@dataclass
class Tracer:
    """Counters per wrapped function, spans per batch-level call."""

    stats: dict[str, FunctionStats] = field(default_factory=dict)
    absent: list[str] = field(default_factory=list)
    observer_errors: list[str] = field(default_factory=list)
    # Counts read from arguments and return values of wrapped calls.
    routed_requests: int = 0
    blocked: dict[str, int] = field(default_factory=dict)
    # Requests simulated: counted from sweep and trial results, and worked
    # out from the study config for when no such result was seen.
    counted_requests: int = 0
    derived_requests: int = 0
    # Span columns: parent span index (-1 for a root), name index, start, end.
    span_parent: array = field(default_factory=lambda: array("q"))
    span_name: array = field(default_factory=lambda: array("B"))
    span_start: array = field(default_factory=lambda: array("d"))
    span_end: array = field(default_factory=lambda: array("d"))
    span_names: list[str] = field(default_factory=list)
    origin: float = field(default_factory=time.perf_counter)

    def __post_init__(self) -> None:
        # Child time accumulated by each open wrapped call; index 0 is the root.
        self._child = [0.0]
        self._open_spans = [-1]

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; record the others as absent."""
        for layer, module_name, qualname, span in targets:
            key = f"{module_name.removeprefix('qrepnet.')}.{qualname}"
            try:
                module = importlib.import_module(module_name)
                owner = module
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError, TypeError):
                self.absent.append(key)
                continue
            kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            original = raw.__func__ if kind else raw
            if not callable(original):
                self.absent.append(key)
                continue
            stats = self.stats[key] = FunctionStats(layer)
            wrapped = self._wrap(original, stats, key if span else None,
                                 _OBSERVERS.get(qualname))
            if kind:
                setattr(owner, attr, kind(wrapped))
            elif owner is module:
                self._rebind(module, original, wrapped)
            else:
                setattr(owner, attr, wrapped)

    @staticmethod
    def _rebind(module, original, wrapped) -> None:
        """Replace ``original`` in ``module`` and every qrepnet namespace binding it."""
        modules = [module] + [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "qrepnet" or name.startswith("qrepnet."))
        ]
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapped)

    def _wrap(self, fn, stats: FunctionStats, span_key: str | None, observer):
        clock = time.perf_counter
        child = self._child
        if span_key is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                start = clock()
                child.append(0.0)
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stats.calls += 1
                    stats.self_s += elapsed - child.pop()
                    child[-1] += elapsed

            return counted

        name_index = len(self.span_names)
        self.span_names.append(span_key)
        open_spans = self._open_spans

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            parent = open_spans[-1]
            span = len(self.span_start)
            self.span_parent.append(parent)
            self.span_name.append(name_index)
            self.span_end.append(0.0)
            open_spans.append(span)
            child.append(0.0)
            start = clock()
            self.span_start.append(start - self.origin)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                self.span_end[span] = end - self.origin
                open_spans.pop()
                stats.calls += 1
                stats.self_s += elapsed - child.pop()
                child[-1] += elapsed
            if observer is not None:
                parent_name = self.span_names[self.span_name[parent]] if parent >= 0 else None
                try:
                    observer(self, args, kwargs, result, parent_name)
                except Exception as exc:  # a refactored API must not stop the run
                    self.observer_errors.append(f"{span_key}: {exc!r}")
                # Observer time counts as a child, so no layer is charged for it.
                child[-1] += clock() - end
            return result

        return spanned

    def write_spans(self, path) -> None:
        """Write the spans as CSV rows ``id,parent,name,start_s,end_s``."""
        with open(path, "w") as handle:
            handle.write("id,parent,name,start_s,end_s\n")
            for i in range(len(self.span_start)):
                handle.write(
                    f"{i},{self.span_parent[i]},{self.span_names[self.span_name[i]]},"
                    f"{self.span_start[i]:.6f},{self.span_end[i]:.6f}\n"
                )

    def report(self) -> dict:
        return {
            "functions": {
                key: {"layer": s.layer, "calls": s.calls, "self_s": s.self_s}
                for key, s in self.stats.items()
            },
            "absent": self.absent,
            "observer_errors": self.observer_errors,
            "routed_requests": self.routed_requests,
            "blocked": self.blocked,
            "study_requests": self.counted_requests or self.derived_requests,
        }


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _observe_allocate_batch(tracer: Tracer, args, kwargs, result, parent_name) -> None:
    tracer.routed_requests += len(_arg(args, kwargs, 1, "requests"))
    allocations = result[0]
    for allocation in allocations:
        if allocation.blocked is not None:
            reason = str(getattr(allocation.blocked, "value", allocation.blocked))
            tracer.blocked[reason] = tracer.blocked.get(reason, 0) + 1


def _observe_sweep(tracer: Tracer, args, kwargs, result, parent_name) -> None:
    if parent_name != "experiment.sweep_xi":
        tracer.counted_requests += sum(x.num_requests for x in result.per_xi)


def _observe_trial(tracer: Tracer, args, kwargs, result, parent_name) -> None:
    if parent_name != "experiment.sweep_xi":
        tracer.counted_requests += len(result.outcomes)


def _observe_study(tracer: Tracer, args, kwargs, result, parent_name) -> None:
    """Fallback count of a study called from the CLI: one batch of n requests
    per (pairing draw, class draw) at every distinct study point."""
    if parent_name != "cli.main":
        return
    config = _arg(args, kwargs, 0, "config")
    points = {(p.mapping, getattr(p, "f_bar", None), p.xi) for p in result}
    tracer.derived_requests += (
        len(points) * config.num_pair_draws * config.num_class_draws * config.n
    )


_OBSERVERS = {
    "allocate_batch": _observe_allocate_batch,
    "sweep_xi": _observe_sweep,
    "run_trial": _observe_trial,
}
_OBSERVERS.update({name: _observe_study for name in STUDIES})


def _sum(functions: dict, keys, field: str, absent: list[str], metric: str) -> float:
    present = [functions[k][field] for k in keys if k in functions]
    if not present:
        absent.append(metric)
    return sum(present)


def layer_metrics(report: dict) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer ``(value, unit)`` of one traced call, and the metrics with no source.

    A metric whose wrapped functions are all absent reads 0 (no such calls
    were made) and is listed as absent.
    """
    functions = report["functions"]
    absent: list[str] = []

    def calls(metric, *keys):
        return _sum(functions, keys, "calls", absent, metric)

    def self_s(metric, *keys):
        return _sum(functions, keys, "self_s", absent, metric)

    def layer_self(metric, layer):
        keys = [k for k, v in functions.items() if v["layer"] == layer]
        return self_s(metric, *keys)

    requests = report["study_requests"]
    scores = calls("fidelity.scores",
                   "fidelity.end_to_end_fidelity", "fidelity.two_class_fidelity")
    metrics = {
        "routing.self_s": layer_self("routing.self_s", "routing"),
        "routing.batches": calls("routing.batches", "routing.allocate_batch"),
        "routing.requests": report["routed_requests"],
        "routing.blocked_no_path": report["blocked"].get("no_path", 0),
        "routing.blocked_threshold": report["blocked"].get("below_threshold", 0),
        "routing.path_composition.calls": calls(
            "routing.path_composition.calls", "routing.path_composition"),
        "routing.path_composition.self_s": self_s(
            "routing.path_composition.self_s", "routing.path_composition"),
        "routing.shuffle_s": self_s("routing.shuffle_s", "routing.shuffle_requests"),
        "experiment.requests": requests,
        "experiment.self_s": layer_self("experiment.self_s", "experiment"),
        "experiment.aggregate_s": layer_self("experiment.aggregate_s", "aggregate"),
        "fidelity.scores": scores,
        "fidelity.self_s": layer_self("fidelity.self_s", "fidelity"),
        "fidelity.scores_per_request": scores / requests if requests else 0.0,
        "rng.streams": calls("rng.streams", "numpy.random.default_rng"),
        "rng.self_s": layer_self("rng.self_s", "rng"),
        "topology.assign_calls": calls("topology.assign_calls", "topology.assign_classes"),
        "topology.graph_copies": calls("topology.graph_copies", "topology.NetworkGraph.copy"),
        "topology.self_s": layer_self("topology.self_s", "topology"),
        "cli.self_s": layer_self("cli.self_s", "cli"),
    }
    if "routing.allocate_batch" not in functions:
        absent += ["routing.requests", "routing.blocked_no_path", "routing.blocked_threshold"]
    if not requests:
        absent += ["experiment.requests", "fidelity.scores_per_request"]
    units = {name: "s" if name.endswith("_s") else "count" for name in metrics}
    units["fidelity.scores_per_request"] = "ratio"
    return {name: (value, units[name]) for name, value in metrics.items()}, absent
