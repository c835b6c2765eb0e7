"""End-to-end tests of the command-line interface, run in process."""

import csv
import re
import time

import pytest

from qrepnet.cli import UsageError, main, read_config

FAST = ["--n", "3", "--pair-draws", "1", "--class-draws", "2", "--xi", "0", "--xi", "1"]
FLOAT_CELL = re.compile(r"^-?\d+\.\d{6}$")


def run(argv):
    return main([str(a) for a in argv])


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def test_topology_study_outputs(tmp_path):
    out = tmp_path / "o"
    assert run(["topology-study", *FAST, "--out-dir", out]) == 0
    rows = read_rows(out / "fidelity_vs_xi.csv")
    assert rows[0] == [
        "topology", "xi", "path_node_count", "mean_fidelity",
        "min", "q1", "median", "q3", "max", "n_samples",
    ]
    for row in rows[1:]:
        assert row[0] in ("grid", "cylinder")
        assert FLOAT_CELL.match(row[1])
        assert row[2].isdigit() and row[9].isdigit()
        for cell in row[3:9]:
            assert FLOAT_CELL.match(cell)
    assert {r[1] for r in rows[1:]} == {"0.000000", "1.000000"}
    summary = read_rows(out / "summary.csv")
    assert summary[0] == ["topology", "mean_fidelity_overall", "mean_path_len", "blocking_prob"]
    assert [r[0] for r in summary[1:]] == ["grid", "cylinder"]
    manifest = (out / "topology_study_manifest.txt").read_text()
    assert "command=topology-study" in manifest
    assert "seed=12345" in manifest


def test_lq_sensitivity_outputs(tmp_path):
    out = tmp_path / "o"
    args = ["lq-sensitivity", "--n", "5", "--pair-draws", "2", "--class-draws", "3",
            "--xi", "0", "--xi", "1", "--out-dir", out]
    assert run(args) == 0
    rows = read_rows(out / "lq_sensitivity.csv")
    assert rows[0][:3] == ["eta_l", "xi", "path_node_count"]
    assert {r[0] for r in rows[1:]} == {"0.990000", "0.800000"}
    # Only the short and long reference path lengths are reported.
    assert {r[2] for r in rows[1:]} == {"7", "11"}


def test_noise_awareness_outputs(tmp_path):
    out = tmp_path / "o"
    assert run(["noise-awareness", *FAST, "--out-dir", out]) == 0
    points = read_rows(out / "fidelity_vs_theta_points.csv")
    assert points[0] == ["mapping", "xi", "theta", "fidelity"]
    assert {r[0] for r in points[1:]} == {"unaware", "aware"}
    means = read_rows(out / "fidelity_vs_theta_means.csv")
    assert means[0] == ["mapping", "xi", "theta", "mean_fidelity", "n_samples"]
    assert {r[2] for r in means[1:]} == {"1", "2", "3"}


def test_blocking_outputs(tmp_path):
    out = tmp_path / "o"
    assert run(["blocking", *FAST, "--f-bar", "0.6", "--out-dir", out]) == 0
    rows = read_rows(out / "blocking_vs_xi.csv")
    assert rows[0] == ["mapping", "f_bar", "xi", "blocking_prob"]
    assert len(rows) == 1 + 2 * 1 * 2
    assert {r[1] for r in rows[1:]} == {"0.600000"}


def test_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run(["topology-study", *FAST, "--out-dir", a])
    run(["topology-study", *FAST, "--out-dir", b])
    for name in ("fidelity_vs_xi.csv", "summary.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_manifest_replays_byte_identically(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run(["blocking", *FAST, "--f-bar", "0.6", "--seed", "7", "--out-dir", a])
    assert run(["blocking", "--config", a / "blocking_manifest.txt", "--out-dir", b]) == 0
    assert (a / "blocking_vs_xi.csv").read_bytes() == (b / "blocking_vs_xi.csv").read_bytes()
    assert "seed=7" in (b / "blocking_manifest.txt").read_text()


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=5\nn=3\npair-draws=1\nclass-draws=2\nxi=0,1\n")
    out = tmp_path / "o"
    assert run(["topology-study", "--config", cfg, "--seed", "9", "--out-dir", out]) == 0
    manifest = (out / "topology_study_manifest.txt").read_text()
    assert "seed=9" in manifest
    assert "n=3" in manifest


def test_env_seed_with_precedence(tmp_path, monkeypatch):
    monkeypatch.setenv("QREPNET_SEED", "31")
    out1 = tmp_path / "o1"
    run(["topology-study", *FAST, "--out-dir", out1])
    assert "seed=31" in (out1 / "topology_study_manifest.txt").read_text()
    out2 = tmp_path / "o2"
    run(["topology-study", *FAST, "--seed", "2", "--out-dir", out2])
    assert "seed=2" in (out2 / "topology_study_manifest.txt").read_text()
    monkeypatch.setenv("QREPNET_SEED", "not-a-number")
    assert run(["topology-study", *FAST, "--out-dir", tmp_path / "o3"]) == 2


def test_eta_l_domain_gate(tmp_path):
    ok = run(["lq-sensitivity", *FAST, "--eta-l", "0.6", "--out-dir", tmp_path / "a"])
    assert ok == 0
    bad = run(["lq-sensitivity", *FAST, "--eta-l", "0.4", "--out-dir", tmp_path / "b"])
    assert bad == 2


def test_usage_errors_exit_2(tmp_path):
    assert run(["noise-awareness", *FAST, "--f-bar", "0.5"]) == 2
    cfg = tmp_path / "m.cfg"
    cfg.write_text("mapping=aware\n")
    assert run(["blocking", *FAST, "--config", cfg]) == 2
    assert run(["topology-study", "--xi", "0.5", "--xi-step", "0.5"]) == 2
    assert run(["topology-study", "--seed", "x"]) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("this line has no equals sign\n")
    assert run(["topology-study", "--config", bad]) == 2
    unknown = tmp_path / "unk.cfg"
    unknown.write_text("frobnicate=1\n")
    assert run(["topology-study", "--config", unknown]) == 2


def test_unrecognized_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["topology-study", "--topology", "grid"])
    assert exc.value.code == 2


def test_study_specific_flags_are_rejected():
    assert run(["noise-awareness", *FAST, "--mapping", "aware"]) == 2
    assert run(["blocking", *FAST, "--mapping", "unaware"]) == 2


def test_xi_step_builds_a_grid(tmp_path):
    out = tmp_path / "o"
    args = ["topology-study", "--n", "3", "--pair-draws", "1", "--class-draws", "2"]
    # 0.5 is off the native 1/9 grid for n=3, which is worth a warning but
    # not an error.
    with pytest.warns(UserWarning):
        assert run([*args, "--xi-step", "0.5", "--out-dir", out]) == 0
    manifest = (out / "topology_study_manifest.txt").read_text()
    assert "xi=0.0,0.5,1.0" in manifest


def test_config_reader_details(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "# comment line\n"
        "seed=4  # trailing comment\n"
        "command=ignored\n"
        "output=ignored.csv\n"
        "eta-l=0.99, 0.8\n"
        "\n"
    )
    values = read_config(cfg)
    assert values == {"seed": ["4"], "eta_l": ["0.99", "0.8"]}
    bad = tmp_path / "b.cfg"
    bad.write_text("x y\n")
    with pytest.raises(UsageError):
        read_config(bad)


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_large_network_smoke_run_stays_fast(tmp_path):
    """An n=12 blocking run finishes well inside a generous budget."""
    out = tmp_path / "o"
    start = time.perf_counter()
    args = ["blocking", "--n", "12", "--pair-draws", "1", "--class-draws", "2",
            "--xi-step", "0.25", "--out-dir", out]
    assert run(args) == 0
    assert time.perf_counter() - start < 20.0
    rows = read_rows(out / "blocking_vs_xi.csv")
    assert len(rows) == 1 + 2 * 3 * 5
