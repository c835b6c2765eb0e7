"""End-to-end tests of the command-line interface, run in process."""

import csv
import re
import time

import pytest

from qrepnet import cli
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


def test_a_mean_with_no_sample_is_an_empty_field(tmp_path):
    """At a threshold of 1 every request is blocked, so ``summary.csv`` has
    no mean fidelity or path length: those fields are empty, not ``None``."""
    out = tmp_path / "o"
    assert run(["topology-study", *FAST, "--f-bar", "1.0", "--out-dir", out]) == 0
    assert read_rows(out / "summary.csv")[1:] == [
        ["grid", "", "", "1.000000"], ["cylinder", "", "", "1.000000"],
    ]


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


def test_file_seed_beats_env_seed(tmp_path, monkeypatch):
    """``QREPNET_SEED`` is read only when neither flag nor file gives a seed."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=5\nn=3\npair-draws=1\nclass-draws=2\nxi=0,1\n")
    for env in ("31", "not-a-number"):
        monkeypatch.setenv("QREPNET_SEED", env)
        out = tmp_path / env
        assert run(["topology-study", "--config", cfg, "--out-dir", out]) == 0
        assert "seed=5\n" in (out / "topology_study_manifest.txt").read_text()


def test_flags_replace_a_files_repeated_key_whole(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("f-bar=0.6,0.9\n")
    out = tmp_path / "o"
    assert run(["blocking", *FAST, "--config", cfg, "--f-bar", "0.7", "--out-dir", out]) == 0
    assert "f-bar=0.7\n" in (out / "blocking_manifest.txt").read_text()
    assert {row[1] for row in read_rows(out / "blocking_vs_xi.csv")[1:]} == {"0.700000"}


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


def test_out_of_memory_building_the_network_exits_1(tmp_path, monkeypatch, capsys):
    """A network too large for memory is one error line and exit 1, before
    any output; the builder is patched, so nothing large is allocated."""

    def no_memory(topology, n):
        raise MemoryError

    monkeypatch.setattr(cli, "base_network", no_memory)
    out = tmp_path / "never"
    assert run(["blocking", *FAST, "--n", "100000", "--out-dir", out]) == 1
    assert capsys.readouterr().err == "error: out of memory building the n=100000 network\n"
    assert not out.exists()


def test_bad_core_width_fails_alike_from_flag_and_file(tmp_path, capsys):
    """``--n`` is cast where every other key is, and ``--topology`` and
    ``--mapping`` are checked where every other value is, so a width that is
    not a whole number, or a topology or mapping no study knows, fails with
    one message, from a flag or a config file, and no output is written.
    So does a noise rate, link fidelity or aware weight outside the model,
    with the message of the code that owns its rule."""
    for command, key, value, message in [
        ("blocking", "n", "2.5", "invalid value for n: '2.5'"),
        ("blocking", "topology", "moebius", "unknown topology 'moebius'"),
        ("lq-sensitivity", "mapping", "psychic", "unknown weight mapping 'psychic'"),
        ("blocking", "eta_h", "0.3", "noise rate must lie in (0.5, 1], got 0.3"),
        ("blocking", "f", "0.2", "link fidelity must lie in (0.25, 1], got 0.2"),
        ("blocking", "aware_weight", "nan", "aware weight must be positive and finite, got nan"),
    ]:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key}={value}\n")
        flag = f"--{key.replace('_', '-')}"
        for source in ([flag, value], ["--config", cfg]):
            out = tmp_path / "never"
            assert run([command, *source, "--pair-draws", "1", "--out-dir", out]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not out.exists()


def test_unrecognized_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["topology-study", "--frobnicate", "1"])
    assert exc.value.code == 2


def test_study_specific_flags_are_rejected():
    """A study's own key is a usage error from a flag as from a file."""
    assert run(["noise-awareness", *FAST, "--mapping", "aware"]) == 2
    assert run(["blocking", *FAST, "--mapping", "unaware"]) == 2
    assert run(["topology-study", *FAST, "--topology", "grid"]) == 2


def test_every_study_offers_the_same_flags(capsys):
    """One key table builds every study's flags, the keys a study owns too."""
    offered = {}
    for command in cli._STUDIES:
        with pytest.raises(SystemExit):
            main([command, "--help"])
        offered[command] = set(re.findall(r"(?<!\S)(--[a-z][a-z-]*)", capsys.readouterr().out))
    flags = {f"--{key.replace('_', '-')}" for key in cli._KEYS}
    assert all(seen == offered["blocking"] for seen in offered.values())
    assert offered["blocking"] == {*flags, "--xi-step", "--config", "--help"}


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


def test_xi_flags_replace_the_files_xi_setting(tmp_path):
    """Values and a step give one xi setting: a flag of either kind replaces
    the file's, and only a source that gives both is a usage error."""
    out = tmp_path / "o"
    assert run(["blocking", *FAST, "--out-dir", out]) == 0
    manifest = out / "blocking_manifest.txt"
    replay = tmp_path / "replay"
    with pytest.warns(UserWarning):  # 0.5 is off the native 1/9 grid for n=3
        assert run(["blocking", "--config", manifest, "--xi-step", "0.5",
                    "--out-dir", replay]) == 0
    assert "xi=0.0,0.5,1.0\n" in (replay / "blocking_manifest.txt").read_text()
    stepped = tmp_path / "stepped.cfg"
    stepped.write_text("n=3\npair-draws=1\nclass-draws=2\nxi-step=0.5\n")
    assert run(["blocking", "--config", stepped, "--xi", "1", "--out-dir", replay]) == 0
    assert "xi=1.0\n" in (replay / "blocking_manifest.txt").read_text()
    assert run(["blocking", "--config", manifest, "--xi", "0", "--xi-step", "0.5",
                "--out-dir", replay]) == 2
    both = tmp_path / "both.cfg"
    both.write_text("n=3\npair-draws=1\nclass-draws=2\nxi=0,1\nxi-step=0.5\n")
    assert run(["blocking", "--config", both, "--out-dir", replay]) == 2


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


# The last name is not UTF-8: argv decodes its byte 0xff to a lone surrogate.
@pytest.mark.parametrize("name", ["c #d", "e ", "f\ng", "bad\udcff"])
def test_an_out_dir_a_manifest_cannot_record_exits_2(tmp_path, name):
    assert run(["blocking", *FAST, "--out-dir", tmp_path / name]) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("content", [b"seed=1\n\xff\n", b"\x7fELF\x02\x01\x01\x00\xc3\x28"],
                         ids=["stray-byte", "binary"])
def test_a_config_that_is_not_utf8_exits_2(tmp_path, capsys, content):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(content)
    out = tmp_path / "never"
    assert run(["blocking", *FAST, "--config", cfg, "--out-dir", out]) == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg}: not UTF-8 text")
    assert not out.exists()


def test_a_config_with_a_byte_order_mark_runs_as_without_it(tmp_path):
    """A config saved with a UTF-8 byte-order mark, as some editors save
    one, gives the same CSV bytes as the same file without it."""
    text = "n=3\npair-draws=1\nclass-draws=2\nxi=0,1\nf-bar=0.6\n".encode()
    written = []
    for name, content in [("plain", text), ("bom", b"\xef\xbb\xbf" + text)]:
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_bytes(content)
        out = tmp_path / name
        assert run(["blocking", "--config", cfg, "--out-dir", out]) == 0
        written.append((out / "blocking_vs_xi.csv").read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize("name", ["missing.cfg", "."], ids=["missing", "directory"])
def test_a_config_that_cannot_be_read_exits_2(tmp_path, capsys, name):
    cfg = tmp_path / name
    out = tmp_path / "never"
    assert run(["blocking", *FAST, "--config", cfg, "--out-dir", out]) == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg}: cannot read the config file")
    assert not out.exists()


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
