"""Hand-made mutants of the program: faults that the tests must catch.

Mutation testing (R. A. DeMillo, R. J. Lipton and F. G. Sayward, "Hints on
Test Data Selection", IEEE Computer 11(4), 1978).  Each entry names one
fault, the file it goes in, the exact source text it replaces, the
replacement, and the CHANGES.md line that first made and killed it.

Run ``python tests/mutants.py [NAME ...]`` from the repository root.  With
no name it runs every entry; with names, only those entries, and an
unknown name exits 1 with the list of valid ones.  It first checks that
every entry's source text occurs exactly once, so a refactor that moves
the code must re-home its mutants.  Then, for the unmutated program and
for each entry in turn, it copies ``src/``, ``tests/``, ``bench/`` and
``pyproject.toml`` to a temporary directory (the checkout is never
touched), makes the entry's replacement there and runs
``pytest -x -q -p no:cacheprovider tests``.  It prints the first test that
failed, or that the mutant survived, and exits non-zero when the
unmutated copy fails, a mutant survives or a source text is missing.  A
run that takes longer than ``TIMEOUT_S`` counts as failed.
pytest does not collect this file.  An entry is removed or changed only
with its reason stated in CHANGES.md.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "bench", "pyproject.toml")
ROUTING = "src/qrepnet/routing.py"
EXPERIMENT = "src/qrepnet/experiment.py"
TOPOLOGY = "src/qrepnet/topology.py"
FIDELITY = "src/qrepnet/fidelity.py"
CLI = "src/qrepnet/cli.py"
# The unmutated tests take about 30 s.
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    path: str
    source: str
    replacement: str
    origin: str


MUTANTS = (
    Mutant(
        "accept every start route",
        ROUTING,
        "elif route is None or not route.edges & used:",
        "elif True:",
        "CHANGES.md line 43: accepting every start route (skipping the "
        "`edges & used` check)",
    ),
    Mutant(
        "mixed-cost graphs share hops",
        ROUTING,
        "routes = hops if len(set(costs) - {0}) == 1 else {}",
        "routes = hops if len(set(costs) - {0}) <= 2 else {}",
        "CHANGES.md line 15: uniform check widened to two distinct positive "
        "costs (mixed graphs share `hops`)",
    ),
    Mutant(
        "carry searches across a cost rise",
        ROUTING,
        "if last.mapping is mapping and all(map(le, costs, last.costs)):",
        "if last.mapping is mapping:",
        "CHANGES.md line 12: searches carried across a cost increase (the "
        "`<=` test dropped)",
    ),
    Mutant(
        "key searches by destination only",
        ROUTING,
        "    key = (destination, used)\n",
        "    key = destination\n",
        "CHANGES.md line 9: keying searches by destination only",
    ),
    Mutant(
        "leave the link fidelity out of the score key",
        ROUTING,
        "@cache\n"
        "def _fidelity(n_h: int, n_l: int, eta_h: float, eta_l: float, link_fidelity: float)"
        " -> float:\n",
        # The memo keeps its cache_clear and cache_info, so only its key
        # changes: a score is memoised at the first link fidelity it meets.
        "def _fidelity(n_h, n_l, eta_h, eta_l, link):\n"
        "    global link_fidelity\n"
        "    link_fidelity = link\n"
        "    return _score(n_h, n_l, eta_h, eta_l)\n\n\n"
        "_fidelity.cache_clear = lambda: _score.cache_clear()\n"
        "_fidelity.cache_info = lambda: _score.cache_info()\n\n\n"
        "@cache\n"
        "def _score(n_h, n_l, eta_h, eta_l):\n",
        "CHANGES.md line 30: the parent, whose key leaves the link fidelity out",
    ),
    Mutant(
        "accept a score 0.02 below the threshold",
        ROUTING,
        "if f >= fidelity_threshold:",
        "if f >= fidelity_threshold - 0.02:",
        "CHANGES.md line 40: copies of the router that accept a score 0.02 "
        "below the threshold",
    ),
    Mutant(
        "do not consume an allocated path's edges",
        ROUTING,
        "used |= route.edges",
        "used |= 0",
        "CHANGES.md line 40: copies of the router that skip consuming one "
        "allocated path's edges",
    ),
    Mutant(
        "reuse a batch on the largest allocated fidelity",
        EXPERIMENT,
        "least = min((a.fidelity for a in allocations if a.path), default=inf)",
        "least = max((a.fidelity for a in allocations if a.path), default=inf)",
        "CHANGES.md line 43: taking the largest allocated fidelity in place of "
        "the least",
    ),
    Mutant(
        "merge worker blocks in reverse",
        EXPERIMENT,
        "for passes in zip(*blocks)]",
        "for passes in zip(*blocks[::-1])]",
        "CHANGES.md line 17: noise-awareness blocks merged in reverse order",
    ),
    Mutant(
        "pool the sweep total without the last xi",
        EXPERIMENT,
        "_xi_summary(None, requests * len(xi_values), sum(histograms, Counter())),",
        "_xi_summary(None, requests * len(xi_values), sum(histograms[:-1], Counter())),",
        "CHANGES.md line 47: the sweep total built without the last xi's histogram",
    ),
    # The noise-awareness fold keeps every sample by design, so only the
    # two folds of bounded state have a buffering mutant.
    Mutant(
        "buffer a blocking pass before folding it",
        EXPERIMENT,
        "for i, j, _, _, _, blocked in _sweep(config, f_bars, None, draws):",
        "for i, j, _, _, _, blocked in list(_sweep(config, f_bars, None, draws)):",
        "CHANGES.md line 7: an engine that holds every batch of a run before "
        "the study folds it",
    ),
    Mutant(
        "buffer a sweep before folding it",
        EXPERIMENT,
        "for i, _, _, _, allocations, _ in _sweep(config, f_bars, None, draws):",
        "for i, _, _, _, allocations, _ in list(_sweep(config, f_bars, None, draws)):",
        "CHANGES.md line 7: an engine that holds every batch of a run before "
        "the study folds it",
    ),
    Mutant(
        "take a theta mean by a float sum",
        EXPERIMENT,
        "return SampleStats.from_samples(self.fidelities).mean",
        "return float(np.mean(self.fidelities))",
        "CHANGES.md line 47: the parent's `np.mean` of a theta profile",
    ),
    Mutant(
        "re-queue no lowered node in a carried search",
        ROUTING,
        "buckets[label].append(u)",
        "pass",
        "CHANGES.md line 12: the repair pushes no lowered node",
    ),
    Mutant(
        "build the cylinder without its wrap edges",
        TOPOLOGY,
        "_add_edge(adjacency, col, (n - 1) * n + col)",
        "pass",
        "CHANGES.md line 2: no cylinder wrap edges",
    ),
    Mutant(
        "pair every source with its own row",
        EXPERIMENT,
        "tuple(int(x) for x in rng.permutation(n))",
        "tuple(range(n))",
        "CHANGES.md line 2: an identity `draw_pairing`",
    ),
    Mutant(
        "contract a swap by a linear noise factor",
        FIDELITY,
        "(4.0 * eta * eta - 1.0) / 3.0",
        "(4.0 * eta - 1.0) / 3.0",
        "CHANGES.md line 2: the swap factor (4 eta - 1) / 3",
    ),
    Mutant(
        "serve requests in reverse theta order",
        ROUTING,
        "for request in ordered:",
        "for request in reversed(ordered):",
        "CHANGES.md line 2: serving requests in reverse theta order",
    ),
    Mutant(
        "do not re-queue the destination's zero-label bucket",
        ROUTING,
        "                            heappush(labels, via)\n",
        # A tier destination gives its neighbour label 0, whose bucket was
        # popped: the label goes into no heap, so the neighbour is never
        # expanded.
        "                            if via:\n"
        "                                heappush(labels, via)\n",
        "CHANGES.md line 37: copies of the router that do not re-queue the "
        "destination's zero-label bucket",
    ),
    Mutant(
        "run block 0 one draw too long",
        EXPERIMENT,
        "spans = [range(b * draws // workers, (b + 1) * draws // workers) for b in range(workers)]",
        "spans = [range(b * draws // workers, (b + 1) * draws // workers + (b == 0))"
        " for b in range(workers)]",
        "CHANGES.md line 19: block 0 one draw too long",
    ),
    Mutant(
        "drop the thread check",
        EXPERIMENT,
        "cpus = _workers() if threading.active_count() == 1 else 1",
        "cpus = _workers()",
        "CHANGES.md line 19: no thread check",
    ),
    Mutant(
        "drop the wrapper check",
        EXPERIMENT,
        'wrapped = getattr(allocate_batch, "__code__", None) is not _ENGINE_CODE',
        "wrapped = False",
        "CHANGES.md line 19: no wrapper check",
    ),
    Mutant(
        "accept an infinite weight",
        ROUTING,
        "if not 0.0 < w < inf:",
        "if not 0.0 < w:",
        "CHANGES.md line 55: the weight check without its upper bound",
    ),
    Mutant(
        "accept a graph with an edge outside its base network",
        ROUTING,
        "if kept == 2 * graph.num_edges:",
        "if kept <= 2 * graph.num_edges:",
        "CHANGES.md line 55: the subgraph scan that counts edges with `<=`",
    ),
    Mutant(
        "accept any threshold",
        ROUTING,
        "if not 0.0 <= fidelity_threshold <= 1.0:",
        "if False:",
        "CHANGES.md line 55: `allocate_batch` without its threshold check",
    ),
    Mutant(
        "accept an infinite aware weight",
        ROUTING,
        "if not 0.0 < lq_weight < inf:",
        "if not 0.0 < lq_weight:",
        "CHANGES.md line 58: the aware mapping's weight check without its upper bound",
    ),
    Mutant(
        "config skips its noise-rate check",
        EXPERIMENT,
        "        self.hq_class(), self.lq_class()\n",
        "        pass\n",
        "CHANGES.md line 58: a config that builds no noise class",
    ),
    Mutant(
        "config skips its link-fidelity check",
        EXPERIMENT,
        "        werner_parameter(self.link_fidelity)\n",
        "        pass\n",
        "CHANGES.md line 58: a config that checks no link fidelity",
    ),
    Mutant(
        "NoiseClass accepts any rate",
        FIDELITY,
        "        swap_noise_factor(self.eta)\n",
        "        pass\n",
        "CHANGES.md line 58: a noise class that checks no rate",
    ),
    Mutant(
        "score a transport endpoint as a swap",
        ROUTING,
        "inner = path[1:-1]",
        "inner = path",
        "CHANGES.md line 58: the parent's scoring, which subtracts tier endpoints only",
    ),
    Mutant(
        "compose a transport endpoint as a swap",
        ROUTING,
        "for v in path[1:-1]:",
        "for v in path:",
        "CHANGES.md line 58: the parent's `path_composition`, which skips tier nodes only",
    ),
    Mutant(
        "multiply the closed form's factors in the order given",
        FIDELITY,
        "for eta, count in sorted(pairs, reverse=True):",
        "for eta, count in pairs:",
        "CHANGES.md line 60: a closed form without its sort, whose value follows "
        "the order of the classes",
    ),
    Mutant(
        "config takes a bool as a number",
        EXPERIMENT,
        "if number and (isinstance(value, bool) or not isinstance(value, number[0])):",
        "if number and not isinstance(value, number[0]):",
        "CHANGES.md line 60: the parent's type check, to which a bool is an `Integral`",
    ),
    Mutant(
        "write None into a CSV field",
        CLI,
        'return f"{value:.6f}" if isinstance(value, float) else value',
        'return f"{value:.6f}" if isinstance(value, float) else str(value)',
        "CHANGES.md line 60: the parent's `_fmt`, which writes the text `None`",
    ),
    Mutant(
        "allocate_batch skips its link-fidelity check",
        ROUTING,
        "    werner_parameter(link_fidelity)\n",
        "    pass\n",
        "CHANGES.md line 60: an `allocate_batch` that checks the link fidelity "
        "only when it scores a route",
    ),
    Mutant(
        "prune one label early",
        ROUTING,
        "and labels[0] <= bound:",
        "and labels[0] < bound:",
        "CHANGES.md line 61: a search that stops at a label equal to its bound",
    ),
    Mutant(
        "leave a transport destination's own cost out of the bound",
        ROUTING,
        "    bound = limit + router.costs[destination]\n",
        "    bound = limit\n",
        "CHANGES.md line 61: a bound of the interior's cost alone",
    ),
    Mutant(
        "report NO_PATH without the connectivity test",
        ROUTING,
        "route = limit if components[source] == components[destination] else None",
        "route = None",
        "CHANGES.md line 61: every request above the bound blocked for want of a path",
    ),
    Mutant(
        "let an above-bound mark enter the frame-shared hops table",
        ROUTING,
        "if route is None or router.routes is not router.hops:",
        "if True:",
        "CHANGES.md line 61: marks stored in `hops`, whose graphs differ in cost scale",
    ),
    Mutant(
        "take an exhausted search above the bound for no path",
        ROUTING,
        "if route is None and (search.labels or search.togo[source] < inf):",
        "if route is None and search.labels:",
        "CHANGES.md line 61: a source left with a finite label above the bound "
        "reported `NO_PATH` once its search ran out of labels",
    ),
)


def missing() -> list[str]:
    """The names of the entries whose source text does not occur exactly
    once in their file."""
    return [
        m.name for m in MUTANTS if (ROOT / m.path).read_text(encoding="utf-8").count(m.source) != 1
    ]


def first_failure(mutant: Mutant | None) -> str | None:
    """Run the tests on a copy with ``mutant`` applied (none: the program
    as it is) and return the first failing test, or ``None`` if all pass."""
    with tempfile.TemporaryDirectory(prefix="qrepnet-mutant-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, copy / name, ignore=ignore)
            else:
                shutil.copy2(ROOT / name, copy / name)
        if mutant is not None:
            target = copy / mutant.path
            text = target.read_text(encoding="utf-8")
            target.write_text(text.replace(mutant.source, mutant.replacement), encoding="utf-8")
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"],
                cwd=copy,
                env={**os.environ, "PYTHONPATH": str(copy / "src")},
                capture_output=True,
                text=True,
                timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            # A mutant that hangs the tests is caught, though by no test.
            return f"no result within {TIMEOUT_S} s"
    if done.returncode == 0:
        return None
    for line in done.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0]
    return f"pytest exited {done.returncode}:\n{done.stdout[-2000:]}{done.stderr[-2000:]}"


def main(names: list[str]) -> int:
    unknown = sorted(set(names) - {m.name for m in MUTANTS})
    if unknown:
        print(f"unknown mutant names: {', '.join(map(repr, unknown))}; valid names:")
        for mutant in MUTANTS:
            print(f"  {mutant.name}")
        return 1
    absent = missing()
    for name in absent:
        print(f"source text not found exactly once: {name}")
    if absent:
        return 1
    chosen = [m for m in MUTANTS if not names or m.name in names]
    start = time.perf_counter()
    failed = first_failure(None)
    print(f"unmutated: {failed or 'passed'} ({time.perf_counter() - start:.1f} s)", flush=True)
    if failed:
        return 1
    survived = 0
    for mutant in chosen:
        start = time.perf_counter()
        failed = first_failure(mutant)
        survived += failed is None
        took = time.perf_counter() - start
        print(f"{mutant.name}: {failed or 'SURVIVED'} ({took:.1f} s)", flush=True)
    print(f"{len(chosen) - survived} of {len(chosen)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
