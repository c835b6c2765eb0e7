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


# Flags beyond FAST for each study's replayed run.
REPLAYED = {
    "topology-study": ["--mapping", "aware", "--f-bar", "0.6"],
    "lq-sensitivity": ["--eta-l", "0.9", "--eta-l", "0.7", "--topology", "grid"],
    "noise-awareness": ["--topology", "grid", "--aware-weight", "2.5"],
    "blocking": ["--f-bar", "0.6", "--f-bar", "0.9"],
}


@pytest.mark.parametrize("command", REPLAYED)
def test_manifest_replays_byte_identically(tmp_path, command):
    """Every study's manifest, each with its own keys, replays to the same
    CSVs and the same configuration; the worker count it records is ignored
    on replay."""
    a, b = tmp_path / "a", tmp_path / "b"
    assert run([command, *FAST, *REPLAYED[command], "--seed", "7", "--out-dir", a]) == 0
    manifest = a / f"{command.replace('-', '_')}_manifest.txt"
    text = manifest.read_text()
    assert re.search(r"^workers=[1-9][0-9]*$", text, re.M)
    manifest.write_text(re.sub(r"^workers=.*$", "workers=99", text, flags=re.M))
    assert run([command, "--config", manifest, "--out-dir", b]) == 0
    outputs = re.findall(r"^output=(.*)$", text, re.M)
    assert outputs
    for name in outputs:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    replayed = (b / manifest.name).read_text()
    assert "seed=7" in replayed
    assert re.search(r"^workers=[1-9][0-9]*$", replayed, re.M)
    assert "workers=99" not in replayed
    run_lines = re.compile(r"^(started|finished|workers|out-dir)=.*\n", re.M)
    assert run_lines.sub("", replayed) == run_lines.sub("", text)


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
    # Every value of a repeated key is checked before any output is written,
    # whether it comes from flags or from a config file.
    for command, key, values in [
        ("blocking", "f-bar", ["1.5"]),
        ("blocking", "f-bar", ["0.6", "1.5"]),
        ("lq-sensitivity", "eta-l", ["0.99", "0.4"]),
    ]:
        out = tmp_path / "never"
        flags = [arg for value in values for arg in (f"--{key}", value)]
        assert run([command, *FAST, *flags, "--out-dir", out]) == 2
        repeated = tmp_path / "repeated.cfg"
        repeated.write_text(f"{key}={','.join(values)}\n")
        assert run([command, *FAST, "--config", repeated, "--out-dir", out]) == 2
        assert not out.exists()
    # A key with no value is named with its file and line, for any study.
    for command, line in [
        ("blocking", "seed="), ("blocking", "f_bar= ,"), ("blocking", "xi="),
        ("topology-study", "xi="), ("topology-study", "eta_l="),
        ("lq-sensitivity", "xi="), ("lq-sensitivity", "eta_l="),
        ("noise-awareness", "seed="),
    ]:
        empty = tmp_path / "empty.cfg"
        empty.write_text(f"n=2\n{line}\n")
        with pytest.raises(UsageError, match=r"empty\.cfg:2: .* has no value"):
            read_config(empty)
        assert run([command, "--config", empty, "--out-dir", tmp_path / "o"]) == 2


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
    # A step that does not divide 1 still ends the grid at 1.
    for step, grid in (("0.3", "0.0,0.3,0.6,0.9,1.0"), ("0.35", "0.0,0.35,0.7,1.0")):
        with pytest.warns(UserWarning):
            assert run([*args, "--xi-step", step, "--out-dir", out]) == 0
        assert f"xi={grid}\n" in (out / "topology_study_manifest.txt").read_text()


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


@pytest.mark.parametrize("name", ["a,b", "c#d"])
def test_manifest_of_an_out_dir_with_a_comma_or_hash_replays(tmp_path, name):
    """A manifest records its out-dir whole, and replaying it writes there."""
    out = tmp_path / name
    assert run(["blocking", *FAST, "--out-dir", out]) == 0
    csv_file = out / "blocking_vs_xi.csv"
    written = csv_file.read_bytes()
    csv_file.unlink()
    assert run(["blocking", "--config", out / "blocking_manifest.txt"]) == 0
    assert csv_file.read_bytes() == written
    assert sorted(p.name for p in tmp_path.iterdir()) == [name]


@pytest.mark.parametrize("name", ["c #d", "e ", "f\ng"])
def test_an_out_dir_a_manifest_cannot_record_exits_2(tmp_path, name):
    assert run(["blocking", *FAST, "--out-dir", tmp_path / name]) == 2
    assert list(tmp_path.iterdir()) == []


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
