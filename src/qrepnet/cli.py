"""Command-line front end for the routing studies.

Four subcommands map onto the four studies; each writes plot-ready CSV files
plus a flat-text run manifest into the output directory.  All numeric CSV
fields carry six decimal places and rows are emitted in a fixed order, so a
repeated run with the same seed and configuration is byte-identical.

Configuration comes from flags, then a ``key=value`` file given with
``--config``, then (for the seed) the ``QREPNET_SEED`` environment variable,
then defaults; :func:`_settings` merges the sources.  A run manifest is
itself a valid config file, which makes any run replayable:

    qrepnet topology-study --config results/topology_study_manifest.txt

Each subcommand is one entry of ``_STUDIES``, which declares what sets the
study apart; one runner resolves, checks, runs and records every study.
"""

from __future__ import annotations

import argparse
import csv
import os
import re
import sys
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, experiment
from .experiment import (
    COARSE_XI_GRID,
    DEFAULT_ETA_L_VALUES,
    DEFAULT_F_BAR_VALUES,
    MAPPINGS,
    ExperimentConfig,
    SampleStats,
    study_blocking,
    study_noise_awareness,
    sweep_eta_l,
    sweep_xi,
)
from .topology import CYLINDER, GRID, TOPOLOGIES, base_network

__all__ = ["main"]

ENV_SEED = "QREPNET_SEED"
DEFAULT_OUT_DIR = "results"
SENSITIVITY_PATH_NODE_COUNTS = (7, 11)

# Keys a manifest contains beyond plain configuration; ignored on re-read.
_MANIFEST_ONLY_KEYS = {"command", "version", "started", "finished", "workers", "output"}
# Every configuration key in manifest order: the ExperimentConfig field it
# sets, its type, and its flag's metavar and help.  ``xi`` and ``out_dir``
# resolve on their own.
_KEYS = {
    "n": ("n", int, "WIDTH", "transport core width"),
    "xi": ("xi_values", float, "FRACTION", "upgrade fraction; repeatable"),
    "eta_h": ("eta_h", float, "RATE", "high-quality node noise rate"),
    "eta_l": ("eta_l", float, "RATE", "low-quality node noise rate; lq-sensitivity takes several"),
    "f": ("link_fidelity", float, "FIDELITY", "elementary link fidelity"),
    "f_bar": ("f_bar", float, "THRESHOLD",
              "minimum acceptable end-to-end fidelity; blocking takes several"),
    "aware_weight": ("aware_weight", float, "WEIGHT",
                     "node weight the aware mapping puts on low-quality nodes"),
    "pair_draws": ("num_pair_draws", int, "COUNT", "source-destination pairings drawn"),
    "class_draws": ("num_class_draws", int, "COUNT", "node class assignments drawn"),
    "seed": ("seed", int, "INT", f"root seed, else ${ENV_SEED}"),
    "out_dir": (None, str, "DIR", f"output directory (default {DEFAULT_OUT_DIR})"),
    "topology": ("topology", str, "NAME", " or ".join(TOPOLOGIES)),
    "mapping": ("mapping", str, "NAME", "routing weight mapping: " + " or ".join(MAPPINGS)),
}


# A comment opens a line or follows whitespace, so values may hold ``#``.
_COMMENT = re.compile(r"(?<!\S)#")


class UsageError(Exception):
    """Invalid flag/config combination; maps to exit code 2."""


def _normalise_key(key: str) -> str:
    return key.strip().replace("-", "_")


def _uncommented(line: str) -> str:
    """``line`` up to a ``#`` that opens it or follows whitespace."""
    return _COMMENT.split(line, 1)[0]


def read_config(path: str | Path) -> dict[str, list[str]]:
    """Parse a ``key=value`` config file into raw string values.

    Repeatable keys may appear several times or hold comma-separated values;
    ``#`` at the start of a line or after whitespace starts a comment.
    ``out-dir`` is read whole, commas included.  A key with no value is a
    usage error, and so is a file that is not UTF-8.  Manifest bookkeeping
    keys are skipped so a run manifest doubles as a config file.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    values: dict[str, list[str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _uncommented(raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = _normalise_key(key)
        if key in _MANIFEST_ONLY_KEYS:
            continue
        parts = [value] if key == "out_dir" else value.split(",")
        parts = [part.strip() for part in parts if part.strip()]
        if not parts:
            raise UsageError(f"{path}:{lineno}: {key} has no value")
        values.setdefault(key, []).extend(parts)
    return values


# Each given key's raw values, as the flags or the config file give them.
_Settings = dict[str, list[str]]


def _settings(args: argparse.Namespace) -> _Settings:
    """Every given key's raw values, merged once: the flags replace the config
    file's values key by key (``xi`` and ``xi_step`` counting as one key),
    and ``QREPNET_SEED`` gives the seed when neither source does."""
    settings = read_config(args.config) if args.config else {}
    unknown = set(settings) - set(_KEYS) - {"xi_step"}
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    flags = {key: value if isinstance(value, list) else [str(value)]
             for key in (*_KEYS, "xi_step") if (value := getattr(args, key)) is not None}
    if "xi" in flags or "xi_step" in flags:
        settings.pop("xi", None)
        settings.pop("xi_step", None)
    settings.update(flags)
    env = os.environ.get(ENV_SEED)
    if "seed" not in settings and env is not None:
        try:
            int(env)
        except ValueError as exc:
            raise UsageError(f"{ENV_SEED} must be an integer, got {env!r}") from exc
        settings["seed"] = [env]
    return settings


def _value(settings: _Settings, key: str | None, cast, default=None, many=False):
    """``key``'s value cast, a tuple of them if ``many``, or ``default`` if unset."""
    raw = settings.get(key)
    if raw is None:
        return default
    if len(raw) > 1 and not many:
        raise UsageError(f"{key} accepts a single value, got {raw}")
    try:
        values = tuple(map(cast, raw))
    except ValueError as exc:
        raise UsageError(f"invalid value for {key}: {raw if many else raw[0]!r}") from exc
    return values if many else values[0]


def _resolve_xi(
    settings: _Settings, default: tuple[float, ...] | None
) -> tuple[float, ...] | None:
    """The xi values, given or stepped, else ``default``."""
    xi = _value(settings, "xi", float, many=True)
    step = _value(settings, "xi_step", float)
    if step is None:
        return default if xi is None else xi
    if xi is not None:
        raise UsageError("give either xi values or an xi step, not both")
    if not 0.0 < step <= 1.0:
        raise UsageError(f"xi step must lie in (0, 1], got {step}")
    # Every multiple of the step up to 1, then 1 itself if the last falls short.
    values = [round(i * step, 12) for i in range(int(1.0 / step) + 2)]
    values = [v for v in values if v <= 1.0]
    return tuple(values if values[-1] == 1.0 else [*values, 1.0])


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    print(f"wrote {path}")


def _write_manifest(path: Path, items: Sequence[tuple[str, object]]) -> None:
    """Write one ``key=value`` line per item, floats at full precision."""
    lines = []
    for key, value in items:
        if isinstance(value, (tuple, list)):
            rendered = ",".join(repr(v) if isinstance(v, float) else str(v) for v in value)
        elif isinstance(value, float):
            rendered = repr(value)
        else:
            rendered = str(value)
        lines.append(f"{key.replace('_', '-')}={rendered}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


_FIDELITY_COLUMNS = ["xi", "path_node_count", "mean_fidelity",
                     "min", "q1", "median", "q3", "max", "n_samples"]


def _stat_row(stats: SampleStats) -> list:
    s = stats.summary
    return [stats.mean, s.minimum, s.q1, s.median, s.q3, s.maximum, stats.count]


# A CSV a study writes: file name, header and rows.
_Table = tuple[str, Sequence[str], list]


def _topology_tables(cfg: ExperimentConfig, _values: tuple[float, ...]) -> list[_Table]:
    """Fidelity and blocking versus xi, for both the grid and the cylinder."""
    fidelity_rows = []
    summary_rows = []
    for topology in (GRID, CYLINDER):
        summary = sweep_xi(replace(cfg, topology=topology))
        for x in summary.per_xi:
            for node_count, stats in x.by_path_nodes.items():
                fidelity_rows.append([topology, x.xi, node_count, *_stat_row(stats)])
        summary_rows.append([
            topology,
            summary.overall_mean_fidelity,
            summary.overall_mean_path_nodes,
            summary.overall_blocking_probability,
        ])
    return [
        ("fidelity_vs_xi.csv", ["topology", *_FIDELITY_COLUMNS], fidelity_rows),
        ("summary.csv",
         ["topology", "mean_fidelity_overall", "mean_path_len", "blocking_prob"],
         summary_rows),
    ]


def _lq_sensitivity_tables(cfg: ExperimentConfig, eta_l_values: tuple[float, ...]) -> list[_Table]:
    """Fidelity versus xi for several low-quality noise rates, short and long paths."""
    rows = []
    for eta_l, summary in sweep_eta_l(cfg, eta_l_values):
        for x in summary.per_xi:
            for node_count in SENSITIVITY_PATH_NODE_COUNTS:
                stats = x.by_path_nodes.get(node_count)
                if stats is not None:
                    rows.append([eta_l, x.xi, node_count, *_stat_row(stats)])
    return [("lq_sensitivity.csv", ["eta_l", *_FIDELITY_COLUMNS], rows)]


def _noise_awareness_tables(cfg: ExperimentConfig, _values: tuple[float, ...]) -> list[_Table]:
    """Per-establishment-position fidelity under both weight mappings."""
    point_rows = []
    mean_rows = []
    for profile in study_noise_awareness(cfg):
        for fidelity in profile.fidelities:
            point_rows.append([profile.mapping, profile.xi, profile.theta, fidelity])
        if profile.count:
            mean_rows.append(
                [profile.mapping, profile.xi, profile.theta, profile.mean, profile.count]
            )
    return [
        ("fidelity_vs_theta_points.csv", ["mapping", "xi", "theta", "fidelity"], point_rows),
        ("fidelity_vs_theta_means.csv",
         ["mapping", "xi", "theta", "mean_fidelity", "n_samples"], mean_rows),
    ]


def _blocking_tables(cfg: ExperimentConfig, f_bar_values: tuple[float, ...]) -> list[_Table]:
    """Blocking probability versus xi for several fidelity thresholds."""
    points = study_blocking(cfg, f_bar_values)
    rows = [[p.mapping, p.f_bar, p.xi, p.blocking_probability] for p in points]
    return [("blocking_vs_xi.csv", ["mapping", "f_bar", "xi", "blocking_prob"], rows)]


@dataclass(frozen=True)
class _Study:
    """What sets one subcommand's study apart; :func:`_run` does the rest.

    ``tables(config, values)`` runs the study and returns its CSVs,
    ``values`` being those of the repeated key (empty without one).
    """

    help: str
    tables: Callable[[ExperimentConfig, tuple[float, ...]], list[_Table]]
    owns: str | None = None  # a key the study sets itself and rejects
    repeats: str | None = None  # a config field that takes several values
    defaults: tuple[float, ...] = ()  # the repeated key's values when none is given
    xi_grid: tuple[float, ...] | None = None  # None: all multiples of 1/n^2
    zero_f_bar: bool = False  # the study accepts only a zero threshold


_STUDIES = {
    "topology-study": _Study(
        "fidelity and blocking versus xi on both topologies",
        _topology_tables, owns="topology",
    ),
    "lq-sensitivity": _Study(
        "fidelity versus xi for several low-quality noise rates",
        _lq_sensitivity_tables, repeats="eta_l", defaults=DEFAULT_ETA_L_VALUES,
    ),
    "noise-awareness": _Study(
        "fidelity by establishment order under both weight mappings",
        _noise_awareness_tables, owns="mapping", xi_grid=COARSE_XI_GRID, zero_f_bar=True,
    ),
    "blocking": _Study(
        "blocking probability versus xi for several fidelity thresholds",
        _blocking_tables, owns="mapping", repeats="f_bar", defaults=DEFAULT_F_BAR_VALUES,
    ),
}
_BOTH = {"topology": "both topologies", "mapping": "both mappings"}


def _run(command: str, args: argparse.Namespace) -> int:
    """Resolve and check the whole configuration of a study, every value of
    its repeated key included, then run it and write its CSVs and manifest."""
    study = _STUDIES[command]
    settings = _settings(args)
    if study.owns in settings:
        raise UsageError(f"{study.owns} is not accepted here: "
                         f"this study always runs {_BOTH[study.owns]}")
    values = _value(settings, study.repeats, float, study.defaults, many=True)
    given = {field: _value(settings, key, cast) for key, (field, cast, *_) in _KEYS.items()
             if key not in ("xi", "out_dir", study.owns, study.repeats)}
    if study.zero_f_bar and given["f_bar"]:
        raise UsageError("this study requires a zero fidelity threshold")
    given["xi_values"] = _resolve_xi(settings, study.xi_grid)
    out_dir = Path(_value(settings, "out_dir", str, DEFAULT_OUT_DIR))
    recorded = str(out_dir)  # as the manifest writes it: UTF-8, on one line
    if (recorded.splitlines() != [recorded] or _uncommented(recorded).strip() != recorded
            or recorded.encode("utf-8", "replace").decode("utf-8") != recorded):
        raise UsageError(f"out-dir {recorded!r} would not replay from the run manifest")
    try:
        cfg = ExperimentConfig(
            **{"topology": CYLINDER, **{k: v for k, v in given.items() if v is not None}}
        )
        for value in values:
            replace(cfg, **{study.repeats: value})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    try:
        # The study shares this cached network; building it first turns an
        # unaffordable n into one error line before any output is written.
        base_network(cfg.topology, cfg.n)
    except MemoryError:
        raise MemoryError(f"out of memory building the n={cfg.n} network") from None
    started = _now()
    out_dir.mkdir(parents=True, exist_ok=True)

    outputs = []
    for file_name, header, rows in study.tables(cfg, values):
        _write_csv(out_dir / file_name, header, rows)
        outputs.append(("output", file_name))
    passes = len(MAPPINGS) if study.owns == "mapping" else 1
    derived = {"xi": cfg.resolved_xi(), "out_dir": out_dir, study.repeats: values}
    _write_manifest(out_dir / f"{command.replace('-', '_')}_manifest.txt", [
        ("command", command),
        ("version", __version__),
        ("started", started),
        ("finished", _now()),
        ("workers", experiment._pool_workers(passes, cfg, len(cfg.resolved_xi()))),
        *outputs,
        *((key, derived[key] if key in derived else getattr(cfg, field))
          for key, (field, *_) in _KEYS.items() if key != study.owns),
    ])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrepnet",
        description="Entanglement-routing studies on grid and cylinder repeater networks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, study in _STUDIES.items():
        p = sub.add_parser(name, help=study.help)
        # Every study takes every key's flag; _run rejects the one it owns.
        for key, (*_, metavar, text) in _KEYS.items():
            p.add_argument(f"--{key.replace('_', '-')}", metavar=metavar, help=text,
                           action="append" if key in ("xi", "eta_l", "f_bar") else "store")
        p.add_argument("--xi-step", metavar="STEP",
                       help="xi grid step from 0 to 1, alternative to --xi")
        p.add_argument("--config", metavar="FILE",
                       help="key=value file; flags override its entries")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args.command, args)
    except (UsageError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
