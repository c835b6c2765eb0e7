"""Wall time, set-up time and memory of four qrepnet CLI workloads.

Run from the root of a source checkout:

    python3 bench/run.py --workload blocking-n5 --seed 1 --seconds 40 --trace 0

Each call is one serial ``qrepnet.cli.main(argv)`` in a fresh interpreter
(``bench/child.py``) that imports the package from ``src/`` of the checkout
and writes its CSVs into ``.bench_out/``.  The load is closed loop: one
process, one study at a time, the next call starting when the previous one
ends, which fits a 2-core machine.  Calls repeat until the next one would
overrun ``--seconds`` (at least one call runs).

``BENCHMARK.json`` gates on ``blocking-n5`` and ``stress-n10`` only.  On a
shared 2-vCPU VM the speed of the machine itself drifts by 10-30% over
minutes, so every gated workload is one more chance for noise to trip a
bound; ``sensitivity-n5`` and ``awareness-n5`` stay here for runs by hand.

``--trace 0`` reports the end-to-end metrics, all from untraced calls:

* ``wall_s``: median wall time of the ``main(argv)`` call, i.e. the studies
  plus writing the CSVs and the manifest.
* ``setup_s``: median time from spawning a fresh interpreter until it has
  imported ``qrepnet.cli`` and could start the study; besides every timed
  call, three import-only probes before each of them add samples, so they
  spread over the run.  One untimed warm-up comes first.
* ``peak_rss_mb``: median peak resident memory of a call's process.

``--trace 1`` spends half the budget on untraced calls and half on calls
traced by ``bench/layertrace.py``, and reports the per-layer metrics:
medians over the traced calls, plus ``process.cpu_s`` (median CPU time of
the untraced calls) and ``trace.overhead_s`` (median traced minus median
untraced wall time).

Every call is checked: exit code 0, the package imported from this
checkout, the CSV schemas and value ranges, and the SHA-256 digest of each
CSV.  Digests must agree between all calls of a run (traced or not) and,
for seeds pinned in ``bench/digests.json`` by ``bench/pin.py``, with the
digests of the commit that pinned them.  A call failing any check counts in
``failed``.  Digests of unpinned seeds are printed so two commits can be
compared on them.

The last line of standard output is the JSON result; the lines before it
record the environment, the digests and, when traced, absent layers.  A
full report and the spans of the last traced call stay in ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CHILD = BENCH_DIR / "child.py"
PINNED = BENCH_DIR / "digests.json"
OUT_DIR = ".bench_out"
# Import-only probes before each untraced timed call.
SETUP_PROBES = 3
# Every run must end within 180 s; a call still running at this point is
# killed and counted as failed.
HARD_LIMIT_S = 165.0
MAPPINGS = {"unaware", "aware"}


def _check_blocking(rows: list[list[str]]) -> list[str]:
    """One row per (mapping, threshold, xi) of the full grid, probabilities in [0, 1]."""
    grid = {tuple(row[:3]) for row in rows}
    axes = [{row[i] for row in rows} for i in range(3)]
    errors = [] if axes[0] == MAPPINGS and len(rows) == len(grid) == (
        len(axes[0]) * len(axes[1]) * len(axes[2])) else ["rows do not form the full grid"]
    for row in rows:
        if not 0.0 <= float(row[3]) <= 1.0:
            errors.append(f"bad row {row}")
    return errors


def _check_stats(rows: list[list[str]]) -> list[str]:
    errors = [] if rows else ["no rows"]
    for row in rows:
        mean, low, q1, median, q3, high = (float(v) for v in row[3:9])
        if not (0.25 <= low <= q1 <= median <= q3 <= high <= 1.0
                and low <= mean <= high and int(row[9]) >= 1):
            errors.append(f"bad row {row}")
    return errors


def _check_fidelities(rows: list[list[str]], count_column: int) -> list[str]:
    """Rows of (mapping, xi, ..., fidelity) with a positive integer column."""
    errors = [] if rows else ["no rows"]
    for row in rows:
        if (row[0] not in MAPPINGS or int(row[count_column]) < 1
                or not 0.25 <= float(row[3]) <= 1.0):
            errors.append(f"bad row {row}")
    return errors


@dataclass(frozen=True)
class Workload:
    """CLI argv after ``qrepnet``, the requests it simulates, and per CSV its
    header and a row check."""

    argv: tuple[str, ...]
    requests: int
    outputs: dict


BLOCKING_CSV = {"blocking_vs_xi.csv": (("mapping", "f_bar", "xi", "blocking_prob"),
                                       _check_blocking)}

WORKLOADS = {
    # The ROADMAP's headline target; loads every layer and is the only
    # workload that shares a path cache across sweeps.
    "blocking-n5": Workload(("blocking",), 390_000, BLOCKING_CSV),
    # Fast branch: routes each batch once and re-scores per xi, so the
    # experiment loop and scoring dominate, not the router.
    "sensitivity-n5": Workload(("lq-sensitivity",), 130_000, {
        "lq_sensitivity.csv": (("eta_l", "xi", "path_node_count", "mean_fidelity", "min",
                                "q1", "median", "q3", "max", "n_samples"), _check_stats),
    }),
    # The run_trial loop with no path cache, and the largest CSV output.
    "awareness-n5": Workload(("noise-awareness",), 30_000, {
        "fidelity_vs_theta_points.csv": (("mapping", "xi", "theta", "fidelity"),
                                         lambda rows: _check_fidelities(rows, 2)),
        "fidelity_vs_theta_means.csv": (("mapping", "xi", "theta", "mean_fidelity",
                                         "n_samples"),
                                        lambda rows: _check_fidelities(rows, 4)),
    }),
    # The n=10 stress configuration, where Dijkstra dominates.
    "stress-n10": Workload(("blocking", "--n", "10", "--f-bar", "0.53", "--class-draws",
                            "20", "--xi-step", "0.05"), 42_000, BLOCKING_CSV),
}


def check_outputs(workload: Workload, out_dir: Path) -> tuple[dict[str, str], list[str]]:
    """SHA-256 of every CSV in ``out_dir`` and the schema or range errors found."""
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out_dir.glob("*.csv"))}
    errors = []
    if set(digests) != set(workload.outputs):
        errors.append(f"CSV files {sorted(digests)}, expected {sorted(workload.outputs)}")
    for name, (header, check) in workload.outputs.items():
        path = out_dir / name
        if not path.is_file():
            continue
        lines = [line.split(",") for line in path.read_text().splitlines()]
        if not lines or tuple(lines[0]) != header:
            errors.append(f"{name}: header {lines[:1]}, expected {list(header)}")
            continue
        try:
            errors += [f"{name}: {e}" for e in check(lines[1:])]
        except (ValueError, IndexError) as exc:
            errors.append(f"{name}: unparsable row ({exc})")
    if "fidelity_vs_theta_means.csv" in digests and "fidelity_vs_theta_points.csv" in digests:
        points = (out_dir / "fidelity_vs_theta_points.csv").read_text().count("\n") - 1
        means = (out_dir / "fidelity_vs_theta_means.csv").read_text().splitlines()[1:]
        if sum(int(line.rsplit(",", 1)[1]) for line in means) != points:
            errors.append("mean sample counts do not add up to the point rows")
    return digests, errors


class Runner:
    """Spawns the calls of one run and checks each one's outputs."""

    def __init__(self, root: Path, workload: Workload, seed: int, run_dir: Path,
                 pinned: dict[str, str] | None) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.run_dir = run_dir
        self.pinned = pinned
        self.reference: dict[str, str] | None = pinned
        self.started = time.perf_counter()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([os.environ["PYTHONPATH"]] if "PYTHONPATH" in os.environ
                                   else []))
        self.count = 0

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    def call(self, mode: str) -> dict:
        """One child process; ``mode`` is ``setup``, ``run`` or ``trace``."""
        self.count += 1
        call_dir = self.run_dir / f"{self.count:03d}-{mode}"
        call_dir.mkdir(parents=True)
        out_dir = call_dir / "out"
        result = call_dir / "result.json"
        argv = [*self.workload.argv, "--seed", str(self.seed), "--out-dir", str(out_dir)]
        errors: list[str] = []
        spawn = time.perf_counter()
        with open(call_dir / "log.txt", "w") as log:
            try:
                proc = subprocess.run(
                    [sys.executable, str(CHILD), str(result), mode, *argv],
                    cwd=self.root, env=self.env, stdout=log, stderr=subprocess.STDOUT,
                    timeout=max(self.remaining(), 1.0), check=False,
                )
                if proc.returncode != 0:
                    errors.append(f"child exited with {proc.returncode}")
            except subprocess.TimeoutExpired:
                errors.append("timed out")
        elapsed = time.perf_counter() - spawn
        try:
            record = json.loads(result.read_text())
        except (OSError, ValueError):
            # The child died before reporting: charge its whole life to every
            # timing so the failure cannot look fast.
            record = {"wall_s": elapsed, "setup_s": elapsed, "cpu_s": elapsed,
                      "peak_rss_mb": 0.0}
            errors.append("no result record")
        else:
            record["setup_s"] = record["ready"] - spawn
            src = (self.root / "src").resolve()
            if not Path(record["qrepnet_file"]).resolve().is_relative_to(src):
                errors.append(f"imported {record['qrepnet_file']}, not the checkout's src/")
        if mode == "trace" and "trace" in record:
            requests = record["trace"]["study_requests"]
            if requests != self.workload.requests:
                errors.append(f"simulated {requests} requests, expected "
                              f"{self.workload.requests}")
        if mode != "setup":
            if record.get("exit_code") != 0:
                errors.append(f"main returned {record.get('exit_code')}")
            record["csv_bytes"] = sum(p.stat().st_size for p in out_dir.glob("*.csv"))
            errors += self._check(out_dir)
        if errors:
            log_tail = (call_dir / "log.txt").read_text()[-2000:]
            errors.append(f"log tail: {log_tail}")
        record["errors"] = errors
        return record

    def _check(self, out_dir: Path) -> list[str]:
        if not out_dir.is_dir():
            return ["no output directory"]
        digests, errors = check_outputs(self.workload, out_dir)
        if self.reference is None and not errors:
            self.reference = digests
        elif self.reference is not None and digests != self.reference:
            what = "pinned" if self.reference is self.pinned else "first call's"
            errors.append(f"CSV digests {digests} differ from the {what} {self.reference}")
        # Only the last call's CSVs are kept; they are hashed already.
        for path in out_dir.glob("*.csv"):
            path.unlink()
        return errors

    def repeat(self, mode: str, budget: float,
               probes: list[dict] | None = None) -> list[dict]:
        """Calls until the next one would overrun ``budget`` seconds; at least one.

        With ``probes``, ``SETUP_PROBES`` import-only calls run before each
        call and are appended to it, so set-up is sampled across the run.
        """
        start = time.perf_counter()
        records: list[dict] = []
        while True:
            if probes is not None:
                probes += [self.call("setup") for _ in range(SETUP_PROBES)]
            records.append(self.call(mode))
            spent = time.perf_counter() - start
            per_call = spent / len(records)
            if spent + per_call > budget or per_call > self.remaining() - 5.0:
                return records


def environment(root: Path, numpy_version: str | None) -> dict:
    commit = None
    if (root / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                  capture_output=True, text=True, check=False)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    source = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        source.update(path.relative_to(root).as_posix().encode() + b"\0")
        source.update(path.read_bytes())
    uname = platform.uname()
    return {
        "machine": uname.machine,
        "system": f"{uname.system} {uname.release}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


def _median(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def end_to_end(setups: list[dict], calls: list[dict]) -> dict:
    return {
        "wall_s": (_median(calls, "wall_s"), "s"),
        "setup_s": (_median(setups + calls, "setup_s"), "s"),
        "peak_rss_mb": (_median(calls, "peak_rss_mb"), "MB"),
    }


def per_layer(calls: list[dict], traced: list[dict]) -> tuple[dict, list[str], list[str]]:
    from layertrace import Tracer, layer_metrics

    samples, absent, observer_errors = [], set(), set()
    # A call that died before reporting counts as an empty trace.
    for record in traced:
        report = record.get("trace") or Tracer().report()
        metrics, missing = layer_metrics(report)
        samples.append(metrics)
        absent.update(missing)
        absent.update(report["absent"])
        observer_errors.update(report["observer_errors"])
    metrics = {
        name: (statistics.median(s[name][0] for s in samples), unit)
        for name, (_, unit) in samples[0].items()
    }
    metrics["cli.csv_bytes"] = (traced[-1].get("csv_bytes", 0), "bytes")
    metrics["process.cpu_s"] = (_median(calls, "cpu_s"), "s")
    metrics["trace.overhead_s"] = (_median(traced, "wall_s") - _median(calls, "wall_s"), "s")
    return metrics, sorted(absent), sorted(observer_errors)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="root seed of the studies (taken modulo 2**32)")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement budget of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qrepnet" / "cli.py").is_file():
        print(f"error: {root} holds no qrepnet source tree (src/qrepnet/cli.py)",
              file=sys.stderr)
        return 2
    seed = args.seed % 2**32
    workload = WORKLOADS[args.workload]
    key = f"{args.workload}-seed{seed}-trace{args.trace}"
    run_dir = root / OUT_DIR / key
    shutil.rmtree(run_dir, ignore_errors=True)
    pinned = json.loads(PINNED.read_text()).get(args.workload, {}).get(str(seed))
    runner = Runner(root, workload, seed, run_dir, pinned)

    start = time.perf_counter()
    runner.call("setup")  # untimed warm-up: byte-compiles and fills the file cache
    setups: list[dict] = []
    if args.trace:
        calls = runner.repeat("run", args.seconds / 2)
        traced = runner.repeat("trace", args.seconds - (time.perf_counter() - start))
        metrics, absent, observer_errors = per_layer(calls, traced)
    else:
        calls = runner.repeat("run", args.seconds - (time.perf_counter() - start), setups)
        traced = []
        metrics = end_to_end(setups, calls)

    checked = calls + traced
    failures = [r["errors"] for r in setups + checked if r["errors"]]
    for errors in failures:
        print("failed call: " + "; ".join(errors), file=sys.stderr)
    env = environment(root, next((r["numpy"] for r in checked if "numpy" in r), None))
    report = {
        "workload": args.workload, "argv": list(workload.argv), "seed": seed,
        "environment": env,
        "digests": runner.reference, "digests_pinned": pinned is not None,
        "calls": len(calls), "traced_calls": len(traced), "setup_probes": len(setups),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps({"environment": env}))
    print(json.dumps({"digests": runner.reference, "pinned": pinned is not None}))
    if args.trace:
        report["absent"] = absent
        report["observer_errors"] = observer_errors
        report["spans_file"] = str(
            (run_dir / f"{runner.count:03d}-trace" / "spans.csv").relative_to(root))
        print(json.dumps({"trace": {k: report[k] for k in
                                    ("absent", "observer_errors", "spans_file")}}))
    (root / OUT_DIR / f"{key}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(checked),
        "failed": sum(1 for r in checked if r["errors"]),
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
