"""Checks of the benchmark itself, on tiny configs so they run in seconds.

Run from the repository root: ``python3 -m pytest bench/tests``.
"""

import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from layertrace import Tracer, layer_metrics  # noqa: E402
from run import WORKLOADS, Runner, check_outputs  # noqa: E402

TINY_DRAWS = ("--n", "3", "--pair-draws", "1", "--class-draws", "2")
# argv after ``qrepnet`` and the requests it simulates:
# mappings x thresholds x xi points x pairing draws x class draws x n.
TINY = {
    "blocking-n5": (("blocking", *TINY_DRAWS), 2 * 3 * 10 * 1 * 2 * 3),
    "sensitivity-n5": (("lq-sensitivity", *TINY_DRAWS), 2 * 10 * 1 * 2 * 3),
    "awareness-n5": (("noise-awareness", *TINY_DRAWS), 2 * 6 * 1 * 2 * 3),
    "stress-n10": (("blocking", *TINY_DRAWS, "--f-bar", "0.53", "--xi-step", "0.5"),
                   2 * 1 * 3 * 1 * 2 * 3),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_call_reproduces_untraced_digests(name, tmp_path):
    argv, requests = TINY[name]
    workload = replace(WORKLOADS[name], argv=argv, requests=requests)
    runner = Runner(ROOT, workload, 7, tmp_path, None)
    untraced = runner.call("run")
    traced = runner.call("trace")
    assert untraced["errors"] == [] and traced["errors"] == []
    assert runner.reference and set(runner.reference) == set(WORKLOADS[name].outputs)
    assert traced["trace"]["absent"] == [] and traced["trace"]["observer_errors"] == []
    metrics, absent = layer_metrics(traced["trace"])
    assert absent == []
    # allocate_batch is called through the name experiment imported, so a
    # non-zero count shows the wrapper reached that binding.
    assert metrics["routing.batches"][0] > 0
    assert (Path(tmp_path) / "002-trace" / "spans.csv").is_file()


def test_missing_targets_are_reported_absent():
    tracer = Tracer()
    tracer.install([
        ("routing", "qrepnet.routing", "no_such_function", False),
        ("topology", "qrepnet.topology", "NetworkGraph.no_such_method", True),
        ("x", "qrepnet.no_such_module", "f", False),
    ])
    assert tracer.absent == [
        "routing.no_such_function",
        "topology.NetworkGraph.no_such_method",
        "no_such_module.f",
    ]
    metrics, absent = layer_metrics(tracer.report())
    assert metrics["routing.batches"] == (0, "count")
    assert {"routing.batches", "rng.streams", "experiment.requests"} <= set(absent)


def test_output_check_flags_bad_rows(tmp_path):
    workload = WORKLOADS["blocking-n5"]
    good = "mapping,f_bar,xi,blocking_prob\n" + "".join(
        f"{m},0.530000,{x},0.500000\n" for m in ("unaware", "aware") for x in ("0", "1"))
    (tmp_path / "blocking_vs_xi.csv").write_text(good)
    assert check_outputs(workload, tmp_path)[1] == []
    (tmp_path / "blocking_vs_xi.csv").write_text(good.replace("0.500000", "1.500000", 1))
    assert check_outputs(workload, tmp_path)[1]
    (tmp_path / "blocking_vs_xi.csv").write_text(good.rsplit("\n", 2)[0] + "\n")
    assert check_outputs(workload, tmp_path)[1] == ["blocking_vs_xi.csv: rows do not form "
                                                     "the full grid"]


def test_refuses_a_directory_without_the_source_tree(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "blocking-n5", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_digest_or_request_count_mismatch_fails_the_call(tmp_path):
    argv, requests = TINY["blocking-n5"]
    workload = replace(WORKLOADS["blocking-n5"], argv=argv, requests=requests + 1)
    wrong = {"blocking_vs_xi.csv": "0" * 64}
    errors = Runner(ROOT, workload, 7, tmp_path, wrong).call("trace")["errors"]
    assert any("differ from the pinned" in e for e in errors)
    assert any(f"simulated {requests} requests" in e for e in errors)


def test_requests_are_counted_from_results_and_config_is_a_fallback():
    from types import SimpleNamespace

    from layertrace import _OBSERVERS

    sweep = SimpleNamespace(per_xi=[SimpleNamespace(num_requests=5)] * 3)
    trial = SimpleNamespace(outcomes=(None,) * 4)
    config = SimpleNamespace(num_pair_draws=1, num_class_draws=2, n=3)
    points = [SimpleNamespace(mapping="aware", f_bar=0.5, xi=0.0)]
    tracer = Tracer()
    _OBSERVERS["study_blocking"](tracer, (config,), {}, points, "cli.main")
    assert tracer.report()["study_requests"] == 6
    _OBSERVERS["sweep_xi"](tracer, (), {}, sweep, "experiment.study_blocking")
    _OBSERVERS["run_trial"](tracer, (), {}, trial, "experiment.study_noise_awareness")
    # A trial inside a sweep is already in the sweep's count.
    _OBSERVERS["run_trial"](tracer, (), {}, trial, "experiment.sweep_xi")
    assert tracer.report()["study_requests"] == 15 + 4
