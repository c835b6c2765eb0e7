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
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from collections.abc import Iterable, Sequence
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, experiment
from .experiment import (
    AWARE,
    COARSE_XI_GRID,
    DEFAULT_SEED,
    MAPPINGS,
    UNAWARE,
    ExperimentConfig,
    SampleStats,
    default_xi_grid,
    study_blocking,
    study_noise_awareness,
    sweep_eta_l,
    sweep_xi,
)
from .topology import CYLINDER, GRID, TOPOLOGIES

__all__ = [
    "cmd_blocking",
    "cmd_lq_sensitivity",
    "cmd_noise_awareness",
    "cmd_topology_study",
    "main",
]

ENV_SEED = "QREPNET_SEED"
DEFAULT_OUT_DIR = "results"
DEFAULT_ETA_L_VALUES = (0.99, 0.8)
DEFAULT_F_BAR_VALUES = (0.53, 0.7, 0.8)
SENSITIVITY_PATH_NODE_COUNTS = (7, 11)

# Keys a manifest contains beyond plain configuration; ignored on re-read.
_MANIFEST_ONLY_KEYS = {"command", "version", "started", "finished", "workers", "output"}
_LIST_KEYS = {"xi", "eta_l", "f_bar"}


class UsageError(Exception):
    """Invalid flag/config combination; maps to exit code 2."""


def _normalise_key(key: str) -> str:
    return key.strip().replace("-", "_")


def read_config(path: str | Path) -> dict[str, list[str]]:
    """Parse a ``key=value`` config file into raw string values.

    Repeatable keys may appear several times or hold comma-separated values;
    ``#`` starts a comment.  A key with no value is a usage error.  Manifest
    bookkeeping keys are skipped so a run manifest doubles as a config file.
    """
    values: dict[str, list[str]] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = _normalise_key(key)
        if key in _MANIFEST_ONLY_KEYS:
            continue
        parts = [part.strip() for part in value.split(",") if part.strip()]
        if not parts:
            raise UsageError(f"{path}:{lineno}: {key} has no value")
        values.setdefault(key, []).extend(parts)
    return values


class _Resolver:
    """Merge flag values, config-file values and defaults, in that order."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.config = read_config(args.config) if args.config else {}
        self.known: set[str] = set(_MANIFEST_ONLY_KEYS)

    def _raw(self, key: str) -> list[str] | None:
        self.known.add(key)
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
        self.known.add(key)
        if getattr(self.args, key, None) is not None or key in self.config:
            raise UsageError(f"{key} is not accepted here: {why}")

    def seed(self) -> int:
        value = self.one("seed", int, None)
        if value is not None:
            return value
        env = os.environ.get(ENV_SEED)
        if env is not None:
            try:
                return int(env)
            except ValueError as exc:
                raise UsageError(f"{ENV_SEED} must be an integer, got {env!r}") from exc
        return DEFAULT_SEED

    def finish(self) -> None:
        unknown = set(self.config) - self.known
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")


def _resolve_xi(res: _Resolver, default: tuple[float, ...]) -> tuple[float, ...]:
    xi = res.many("xi", float, None)
    step = res.one("xi_step", float, None)
    if xi is not None and step is not None:
        raise UsageError("give either xi values or an xi step, not both")
    if xi is not None:
        return xi
    if step is not None:
        if not 0.0 < step <= 1.0:
            raise UsageError(f"xi step must lie in (0, 1], got {step}")
        count = int(round(1.0 / step))
        values = [round(i * step, 12) for i in range(count + 1)]
        return tuple(v for v in values if v <= 1.0 + 1e-9)
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


def _write_manifest(
    path: Path,
    command: str,
    items: Sequence[tuple[str, object]],
    outputs: Sequence[Path],
    started: str,
    finished: str,
    workers: int,
) -> None:
    lines = [
        f"command={command}",
        f"version={__version__}",
        f"started={started}",
        f"finished={finished}",
        f"workers={workers}",
    ]
    lines.extend(f"output={out.name}" for out in outputs)
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


def _stat_row(stats: SampleStats) -> list:
    s = stats.summary
    return [stats.mean, s.minimum, s.q1, s.median, s.q3, s.maximum, stats.count]


def _base_items(cfg: ExperimentConfig, out_dir: Path) -> list[tuple[str, object]]:
    return [
        ("n", cfg.n),
        ("xi", cfg.resolved_xi()),
        ("eta_h", cfg.eta_h),
        ("eta_l", cfg.eta_l),
        ("f", cfg.link_fidelity),
        ("f_bar", cfg.f_bar),
        ("aware_weight", cfg.aware_weight),
        ("pair_draws", cfg.num_pair_draws),
        ("class_draws", cfg.num_class_draws),
        ("seed", cfg.seed),
        ("out_dir", out_dir),
    ]


def _build_config(res: _Resolver, **overrides) -> tuple[ExperimentConfig, Path]:
    n = res.one("n", int, 5)
    kwargs = dict(
        n=n,
        xi_values=_resolve_xi(res, overrides.pop("default_xi", default_xi_grid(n))),
        eta_h=res.one("eta_h", float, 0.999),
        link_fidelity=res.one("f", float, 0.975),
        aware_weight=res.one("aware_weight", float, 100.0),
        num_pair_draws=res.one("pair_draws", int, 5),
        num_class_draws=res.one("class_draws", int, 100),
        seed=res.seed(),
    )
    kwargs.update(overrides)
    out_dir = Path(res.one("out_dir", str, DEFAULT_OUT_DIR))
    try:
        return ExperimentConfig(**kwargs), out_dir
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_topology_study(args: argparse.Namespace) -> int:
    """Fidelity and blocking versus xi, for both the grid and the cylinder."""
    res = _Resolver(args)
    res.reject("topology", "this study always runs both topologies")
    cfg, out_dir = _build_config(
        res,
        eta_l=res.one("eta_l", float, 0.8),
        f_bar=res.one("f_bar", float, 0.0),
        mapping=res.one("mapping", str, UNAWARE),
    )
    res.finish()
    started = _now()
    out_dir.mkdir(parents=True, exist_ok=True)

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

    fid_path = out_dir / "fidelity_vs_xi.csv"
    sum_path = out_dir / "summary.csv"
    _write_csv(
        fid_path,
        ["topology", "xi", "path_node_count", "mean_fidelity",
         "min", "q1", "median", "q3", "max", "n_samples"],
        fidelity_rows,
    )
    _write_csv(
        sum_path,
        ["topology", "mean_fidelity_overall", "mean_path_len", "blocking_prob"],
        summary_rows,
    )
    _write_manifest(
        out_dir / "topology_study_manifest.txt",
        "topology-study",
        [*_base_items(cfg, out_dir), ("mapping", cfg.mapping)],
        [fid_path, sum_path],
        started,
        _now(),
        experiment._pool_workers(1, cfg, len(cfg.resolved_xi())),
    )
    return 0


def cmd_lq_sensitivity(args: argparse.Namespace) -> int:
    """Fidelity versus xi for several low-quality noise rates, short and long paths."""
    res = _Resolver(args)
    eta_l_values = res.many("eta_l", float, DEFAULT_ETA_L_VALUES)
    cfg, out_dir = _build_config(
        res,
        topology=res.one("topology", str, CYLINDER),
        eta_l=eta_l_values[0],
        f_bar=res.one("f_bar", float, 0.0),
        mapping=res.one("mapping", str, UNAWARE),
    )
    res.finish()
    started = _now()
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    for eta_l, summary in sweep_eta_l(cfg, eta_l_values):
        for x in summary.per_xi:
            for node_count in SENSITIVITY_PATH_NODE_COUNTS:
                stats = x.by_path_nodes.get(node_count)
                if stats is not None:
                    rows.append([eta_l, x.xi, node_count, *_stat_row(stats)])

    out_path = out_dir / "lq_sensitivity.csv"
    _write_csv(
        out_path,
        ["eta_l", "xi", "path_node_count", "mean_fidelity",
         "min", "q1", "median", "q3", "max", "n_samples"],
        rows,
    )
    items = _base_items(cfg, out_dir)
    items = [("eta_l", eta_l_values) if k == "eta_l" else (k, v) for k, v in items]
    _write_manifest(
        out_dir / "lq_sensitivity_manifest.txt",
        "lq-sensitivity",
        [*items, ("topology", cfg.topology), ("mapping", cfg.mapping)],
        [out_path],
        started,
        _now(),
        experiment._pool_workers(1, cfg, len(cfg.resolved_xi())),
    )
    return 0


def cmd_noise_awareness(args: argparse.Namespace) -> int:
    """Per-establishment-position fidelity under both weight mappings."""
    res = _Resolver(args)
    res.reject("mapping", "this study always runs both mappings")
    f_bar = res.one("f_bar", float, 0.0)
    if f_bar != 0.0:
        raise UsageError("this study requires a zero fidelity threshold")
    cfg, out_dir = _build_config(
        res,
        topology=res.one("topology", str, CYLINDER),
        eta_l=res.one("eta_l", float, 0.8),
        f_bar=0.0,
        default_xi=COARSE_XI_GRID,
    )
    res.finish()
    started = _now()
    out_dir.mkdir(parents=True, exist_ok=True)

    profiles = study_noise_awareness(cfg)
    point_rows = []
    mean_rows = []
    for profile in profiles:
        for fidelity in profile.fidelities:
            point_rows.append([profile.mapping, profile.xi, profile.theta, fidelity])
        if profile.count:
            mean_rows.append(
                [profile.mapping, profile.xi, profile.theta, profile.mean, profile.count]
            )

    points_path = out_dir / "fidelity_vs_theta_points.csv"
    means_path = out_dir / "fidelity_vs_theta_means.csv"
    _write_csv(points_path, ["mapping", "xi", "theta", "fidelity"], point_rows)
    _write_csv(
        means_path, ["mapping", "xi", "theta", "mean_fidelity", "n_samples"], mean_rows
    )
    _write_manifest(
        out_dir / "noise_awareness_manifest.txt",
        "noise-awareness",
        [*_base_items(cfg, out_dir), ("topology", cfg.topology)],
        [points_path, means_path],
        started,
        _now(),
        experiment._pool_workers(len(MAPPINGS), cfg, len(cfg.resolved_xi())),
    )
    return 0


def cmd_blocking(args: argparse.Namespace) -> int:
    """Blocking probability versus xi for several fidelity thresholds."""
    res = _Resolver(args)
    res.reject("mapping", "this study always runs both mappings")
    f_bar_values = res.many("f_bar", float, DEFAULT_F_BAR_VALUES)
    cfg, out_dir = _build_config(
        res,
        topology=res.one("topology", str, CYLINDER),
        eta_l=res.one("eta_l", float, 0.8),
        f_bar=0.0,
    )
    res.finish()
    started = _now()
    out_dir.mkdir(parents=True, exist_ok=True)

    points = study_blocking(cfg, f_bar_values)
    rows = [[p.mapping, p.f_bar, p.xi, p.blocking_probability] for p in points]

    out_path = out_dir / "blocking_vs_xi.csv"
    _write_csv(out_path, ["mapping", "f_bar", "xi", "blocking_prob"], rows)
    items = [
        (k, f_bar_values) if k == "f_bar" else (k, v)
        for k, v in _base_items(cfg, out_dir)
    ]
    _write_manifest(
        out_dir / "blocking_manifest.txt",
        "blocking",
        [*items, ("topology", cfg.topology)],
        [out_path],
        started,
        _now(),
        experiment._pool_workers(len(MAPPINGS), cfg, len(cfg.resolved_xi())),
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrepnet",
        description="Entanglement-routing studies on grid and cylinder repeater networks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    commands = (
        ("topology-study", cmd_topology_study, False,
         "fidelity and blocking versus xi on both topologies"),
        ("lq-sensitivity", cmd_lq_sensitivity, True,
         "fidelity versus xi for several low-quality noise rates"),
        ("noise-awareness", cmd_noise_awareness, True,
         "fidelity by establishment order under both weight mappings"),
        ("blocking", cmd_blocking, True,
         "blocking probability versus xi for several fidelity thresholds"),
    )
    for name, func, topology_choice, help_text in commands:
        p = sub.add_parser(name, help=help_text)
        _common_flags(p, topology_choice=topology_choice)
        p.set_defaults(func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
