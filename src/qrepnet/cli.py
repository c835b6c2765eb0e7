"""Command-line front end for the routing studies.

Four subcommands map onto the four studies; each writes plot-ready CSV files
plus a flat-text run manifest into the output directory.  All numeric CSV
fields carry six decimal places and rows are emitted in a fixed order, so a
repeated run with the same seed and configuration is byte-identical.

Configuration may come from flags, from a ``key=value`` file given with
``--config`` (flags override the file), or from defaults.  A run manifest is
itself a valid config file, which makes any run replayable:

    qrepnet topology-study --config results/topology_study_manifest.txt

The root seed falls back to the ``QREPNET_SEED`` environment variable when
neither flag nor config file provides one.

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
    AWARE,
    COARSE_XI_GRID,
    DEFAULT_ETA_L_VALUES,
    DEFAULT_F_BAR_VALUES,
    MAPPINGS,
    UNAWARE,
    ExperimentConfig,
    SampleStats,
    study_blocking,
    study_noise_awareness,
    sweep_eta_l,
    sweep_xi,
)
from .topology import CYLINDER, GRID, TOPOLOGIES

__all__ = ["main"]

ENV_SEED = "QREPNET_SEED"
DEFAULT_OUT_DIR = "results"
SENSITIVITY_PATH_NODE_COUNTS = (7, 11)

# Keys a manifest contains beyond plain configuration; ignored on re-read.
_MANIFEST_ONLY_KEYS = {"command", "version", "started", "finished", "workers", "output"}
# Every configuration key in manifest order, with the ExperimentConfig field
# it sets and its type.  ``xi``, ``seed`` and ``out_dir`` resolve on their own.
_KEYS = {
    "n": ("n", int),
    "xi": ("xi_values", float),
    "eta_h": ("eta_h", float),
    "eta_l": ("eta_l", float),
    "f": ("link_fidelity", float),
    "f_bar": ("f_bar", float),
    "aware_weight": ("aware_weight", float),
    "pair_draws": ("num_pair_draws", int),
    "class_draws": ("num_class_draws", int),
    "seed": ("seed", int),
    "out_dir": (None, str),
    "topology": ("topology", str),
    "mapping": ("mapping", str),
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
    usage error.  Manifest bookkeeping keys are skipped so a run manifest
    doubles as a config file.
    """
    values: dict[str, list[str]] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
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


class _Resolver:
    """Merge flag values, config-file values and defaults, in that order."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.config = read_config(args.config) if args.config else {}

    def _raw(self, key: str) -> list[str] | None:
        flag = getattr(self.args, key, None)
        if flag is not None:
            return flag if isinstance(flag, list) else [str(flag)]
        if key in self.config:
            return self.config[key]
        return None

    def one(self, key: str, cast, default):
        raw = self._raw(key)
        if raw is None:
            return default
        if len(raw) > 1:
            raise UsageError(f"{key} accepts a single value, got {raw}")
        try:
            return cast(raw[0])
        except ValueError as exc:
            raise UsageError(f"invalid value for {key}: {raw[0]!r}") from exc

    def many(self, key: str, cast, default):
        raw = self._raw(key)
        if raw is None:
            return default
        try:
            return tuple(cast(v) for v in raw)
        except ValueError as exc:
            raise UsageError(f"invalid value for {key}: {raw}") from exc

    def reject(self, key: str, why: str) -> None:
        if getattr(self.args, key, None) is not None or key in self.config:
            raise UsageError(f"{key} is not accepted here: {why}")

    def seed(self) -> int | None:
        """The given seed, else ``QREPNET_SEED``, else None (the config default)."""
        value = self.one("seed", int, None)
        env = os.environ.get(ENV_SEED)
        if value is None and env is not None:
            try:
                return int(env)
            except ValueError as exc:
                raise UsageError(f"{ENV_SEED} must be an integer, got {env!r}") from exc
        return value

    def finish(self) -> None:
        unknown = set(self.config) - set(_KEYS) - {"xi_step"}
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")


def _resolve_xi(res: _Resolver, default: tuple[float, ...] | None) -> tuple[float, ...] | None:
    xi = res.many("xi", float, None)
    step = res.one("xi_step", float, None)
    if xi is not None and step is not None:
        raise UsageError("give either xi values or an xi step, not both")
    if xi is not None:
        return xi
    if step is not None:
        if not 0.0 < step <= 1.0:
            raise UsageError(f"xi step must lie in (0, 1], got {step}")
        # Every multiple of the step up to 1, then 1 itself if the last falls short.
        values = [round(i * step, 12) for i in range(int(1.0 / step) + 2)]
        values = [v for v in values if v <= 1.0]
        return tuple(values if values[-1] == 1.0 else [*values, 1.0])
    return default


def _common_flags(parser: argparse.ArgumentParser, topology_choice: bool) -> None:
    if topology_choice:
        parser.add_argument("--topology", choices=TOPOLOGIES)
    parser.add_argument("--n", type=int, help="transport core width")
    parser.add_argument("--xi", action="append", metavar="FRACTION",
                        help="upgrade fraction; repeatable")
    parser.add_argument("--xi-step", dest="xi_step", metavar="STEP",
                        help="xi grid step from 0 to 1, alternative to --xi")
    parser.add_argument("--eta-h", dest="eta_h", metavar="RATE",
                        help="high-quality node noise rate")
    parser.add_argument("--eta-l", dest="eta_l", action="append", metavar="RATE",
                        help="low-quality node noise rate")
    parser.add_argument("--f", metavar="FIDELITY", help="elementary link fidelity")
    parser.add_argument("--f-bar", dest="f_bar", action="append", metavar="THRESHOLD",
                        help="minimum acceptable end-to-end fidelity")
    parser.add_argument("--mapping", choices=(UNAWARE, AWARE))
    parser.add_argument("--aware-weight", dest="aware_weight", metavar="WEIGHT",
                        help="node weight the aware mapping puts on low-quality nodes")
    parser.add_argument("--pair-draws", dest="pair_draws", metavar="COUNT")
    parser.add_argument("--class-draws", dest="class_draws", metavar="COUNT")
    parser.add_argument("--seed", metavar="INT")
    parser.add_argument("--out-dir", dest="out_dir", metavar="DIR")
    parser.add_argument("--config", metavar="FILE",
                        help="key=value file; flags override its entries")


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
    path.write_text("\n".join(lines) + "\n")
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
    res = _Resolver(args)
    if study.owns:
        res.reject(study.owns, f"this study always runs {_BOTH[study.owns]}")
    values = res.many(study.repeats, float, study.defaults) if study.repeats else ()
    given = {
        field: res.one(key, cast, None)
        for key, (field, cast) in _KEYS.items()
        if key not in ("xi", "seed", "out_dir", study.owns, study.repeats)
    }
    if study.zero_f_bar and given["f_bar"]:
        raise UsageError("this study requires a zero fidelity threshold")
    given.update(xi_values=_resolve_xi(res, study.xi_grid), seed=res.seed())
    out_dir = Path(res.one("out_dir", str, DEFAULT_OUT_DIR))
    recorded = str(out_dir)  # as the manifest writes it, on one line
    if recorded.splitlines() != [recorded] or _uncommented(recorded).strip() != recorded:
        raise UsageError(f"out-dir {recorded!r} would not replay from the run manifest")
    try:
        cfg = ExperimentConfig(
            **{"topology": CYLINDER, **{k: v for k, v in given.items() if v is not None}}
        )
        for value in values:
            replace(cfg, **{study.repeats: value})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    res.finish()
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
          for key, (field, _) in _KEYS.items() if key != study.owns),
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
        _common_flags(p, topology_choice=study.owns != "topology")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args.command, args)
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
