"""Hand-made mutants of the program: faults that the tests must catch.

Mutation testing (R. A. DeMillo, R. J. Lipton and F. G. Sayward, "Hints on
Test Data Selection", IEEE Computer 11(4), 1978).  Each entry names one
fault, the file it goes in, the exact source text it replaces, the
replacement, and the CHANGES.md line that first made and killed it.

Run ``python tests/mutants.py`` from the repository root.  It first checks
that every entry's source text occurs exactly once, so a refactor that
moves the code must re-home its mutants.  Then, for the unmutated program
and for each entry in turn, it copies ``src/``, ``tests/``, ``bench/`` and
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
        "if route is None or not route.edges & used:",
        "if True:",
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
        "    search = router.searches.get((destination, used))\n"
        "    if search is None:\n"
        "        search = _take_search(router, destination, used)\n",
        "    search = router.searches.get(destination)\n"
        "    if search is None:\n"
        "        search = router.searches[destination] = _take_search(router, destination, used)\n",
        "CHANGES.md line 9: keying searches by destination only",
    ),
    Mutant(
        "leave the link fidelity out of the score key",
        ROUTING,
        "key = (link_fidelity, eta_h, n_h, eta_l, n_l)",
        "key = (eta_h, n_h, eta_l, n_l)",
        "CHANGES.md line 30: the parent, whose key leaves the link fidelity out",
    ),
    Mutant(
        "accept a score 0.02 below the threshold",
        ROUTING,
        "elif (f := fidelity(route)) >= fidelity_threshold:",
        "elif (f := fidelity(route)) >= fidelity_threshold - 0.02:",
        "CHANGES.md line 40: copies of the router that accept a score 0.02 "
        "below the threshold",
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


def main() -> int:
    absent = missing()
    for name in absent:
        print(f"source text not found exactly once: {name}")
    if absent:
        return 1
    start = time.perf_counter()
    failed = first_failure(None)
    print(f"unmutated: {failed or 'passed'} ({time.perf_counter() - start:.1f} s)", flush=True)
    if failed:
        return 1
    survived = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        failed = first_failure(mutant)
        survived += failed is None
        took = time.perf_counter() - start
        print(f"{mutant.name}: {failed or 'SURVIVED'} ({took:.1f} s)", flush=True)
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
