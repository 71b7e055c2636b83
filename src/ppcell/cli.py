"""Experiment runner: reproduce the coverage/rate curves as CSV series.

Subcommands map to curve families (coverage, rate, load-curves, mgf), raw
sample dumps (simulate), and the self-validation suite (validate). Every
run is a pure function of the config file plus (--seed, --jobs); CSV output
is byte-identical across reruns. Thresholds are dB only at this boundary;
everything below works in linear units.

Every CSV is written as joined text: each number is its Python float repr
(inf, -inf and nan included), formatted once however many rows repeat it,
and only validate's free-text cells are ever quoted, by the csv module's
minimal rule.

The analytic subcommands load only mgf and analytics: the simulator is
imported by the runs that simulate (simulate, sim.with_mc) and the
validation suite by validate, each where it first runs.

Exit codes: 0 success, 1 validation suite reported failures, 2 config or
domain error or a failed allocation of the size the config asks for, 3
numerical failure (message carries the achieved tolerance), 141 (128 +
SIGPIPE) the reader of stdout closed it before the output ended.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import math
import os
import sys
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from itertools import chain, islice
from typing import Callable, Iterable, Sequence

import numpy as np

from .analytics import _LAMBDA_REF, _RATIO_GRID, LoadModel, _db_to_linear, load_model, pcov_general
from .analytics import rate_closed_general, rate_quadrature
from .mgf import NetworkParams, NonConvergenceError, SimConfig, mgf, solve_c

__all__ = ["ExperimentKind", "ExperimentSpec", "main", "parse_config", "run_experiment"]


class ConfigError(Exception):
    """Invalid config file or parameter combination (exit code 2)."""


class ExperimentKind(Enum):
    COVERAGE_VS_GAMMA = "CoverageVsGamma"
    RATE_VS_BETA = "RateVsBeta"
    COVERAGE_PARTIAL_LOAD = "CoveragePartialLoad"
    PEAK_RATE_VS_RATIO = "PeakRateVsRatio"
    ACTUAL_RATE_VS_RATIO = "ActualRateVsRatio"
    MGF_PROFILE = "MgfProfile"
    VALIDATE = "Validate"
    # artifact extension: per-realization sample dump for the simulate subcommand
    RAW_SAMPLES = "RawSamples"


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully resolved experiment: kind, parameters, axes, and output target.

    grid holds the thresholds (linear units) or MGF arguments of the kinds
    that sweep them and is empty otherwise. Whichever axis the kind sweeps
    (grid, betas or ratios, per _KINDS) must be nonempty and strictly
    increasing.
    """

    kind: ExperimentKind
    params: NetworkParams
    sim: SimConfig
    output_path: str | None = None
    grid: tuple[float, ...] = ()
    betas: tuple[float, ...] = ()
    ratios: tuple[float, ...] = ()
    idle_mode: bool = False
    with_mc: bool = False
    jobs: int = 1
    quick: bool = False

    def __post_init__(self) -> None:
        row = _KINDS[self.kind]
        if row.axis is not None:
            axis = getattr(self, row.axis)
            if not axis:
                raise ConfigError("grid must be nonempty")
            for a, b in zip(axis, axis[1:]):
                if not b > a:
                    raise ConfigError(f"grid must be strictly increasing, got {a} before {b}")
        if self.idle_mode and self.params.lambda_ue <= 0.0:
            raise ConfigError("sim.idle_mode requires network.lambda_ue > 0")
        # the rate kinds integrate interference-limited coverage only
        if row.mc == "rate" and self.params.sigma_n2 > 0.0:
            sigma = self.params.sigma_n2
            raise ConfigError(f"{self.kind.value} has no noisy rate route; network.sigma_n2 must be 0, got {sigma}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be positive, got {self.jobs}")
        for ratio in self.ratios:
            if ratio <= 0.0:
                raise ConfigError(f"grid.ratios must be positive, got {ratio}")


def _bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ValueError(raw)


def _floats(raw: str) -> tuple[float, ...]:
    values = tuple(float(t) for t in raw.replace(",", " ").split())
    if not values:
        raise ValueError(raw)
    return values


def _unit(raw: str) -> str:
    unit = raw.strip().lower()
    if unit not in ("db", "linear"):
        raise ValueError(raw)
    return unit


_TEXT = (str, "text")
_NUMBER = (float, "a number")
_INTEGER = (int, "an integer")
_BOOLEAN = (_bool, "a boolean")
_LIST = (_floats, "a list of numbers")

# every config key: (parser, what its value must be); parse_config parses the values in
# this order, so a config with two bad values names the same one first on every run
_KEYS = {
    "experiment": {"kind": _TEXT, "output": _TEXT},
    "sim": {"seed": _INTEGER, "n_bs_target": _INTEGER, "n_realizations": _INTEGER,
            "idle_mode": _BOOLEAN, "with_mc": _BOOLEAN},
    "network": {key: _NUMBER for key in ("lambda_bs", "lambda_ue", "beta", "kappa", "p_tx", "sigma_n2")},
    "grid": {"gamma_unit": (_unit, "'db' or 'linear'"), "gamma_start": _NUMBER, "gamma_stop": _NUMBER,
             "gamma_step": _NUMBER, "x_values": _LIST, "ratios": _LIST, "betas": _LIST,
             "beta_start": _NUMBER, "beta_stop": _NUMBER, "beta_step": _NUMBER},
}
# the grid keys that set a beta axis, by list or by range
_BETA_KEYS = {"betas", "beta_start", "beta_stop", "beta_step"}

# subcommand -> help text; each experiment kind belongs to one (see _KINDS)
_COMMANDS = {
    "coverage": "coverage probability vs threshold (exact and approximate curves)",
    "rate": "fully loaded ergodic rate vs path-loss exponent",
    "load-curves": "idle-mode curves vs UE/BS density ratio (peak, actual, or coverage)",
    "mgf": "interference MGF profile: exact vs two-piece approximation",
    "simulate": "dump per-realization Monte Carlo samples as CSV",
    "validate": "run the full analytics-vs-simulation validation suite",
}


def _linear_to_db(x: float) -> float:
    return 10.0 * math.log10(x)


def parse_config(path: str) -> dict[str, dict[str, object]]:
    """Strict flat-key config parse: unknown sections or keys are errors, every value is parsed (file order kept)."""
    cp = configparser.ConfigParser()
    out: dict[str, dict[str, object]] = {}
    try:
        with open(path) as fh:
            cp.read_file(fh)
        for section in cp.sections():
            if section not in _KEYS:
                raise ConfigError(f"unknown config section [{section}] in {path}")
            # reading the values interpolates them: a lone "%" fails here, not in read_file
            out[section] = dict(cp.items(section))
            for key in out[section]:
                if key not in _KEYS[section]:
                    raise ConfigError(f"unknown config key {section}.{key} in {path}")
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}")
    for section, keys in _KEYS.items():
        for key, (parse, what) in keys.items():
            if key in out.get(section, {}):
                raw = out[section][key]
                try:
                    out[section][key] = parse(raw)
                except ValueError:
                    raise ConfigError(f"{section}.{key} must be {what}, got {raw!r}")
    return out


def _get(cfg: dict, section: str, key: str, default):
    """The parsed value of section.key, or default when the config leaves it out."""
    return cfg.get(section, {}).get(key, default)


def _network_from_config(cfg: dict, default_lambda: float = _LAMBDA_REF) -> NetworkParams:
    # NetworkParams supplies the defaults except the kind's lambda_bs and beta 4
    try:
        return NetworkParams(**{"lambda_bs": default_lambda, "beta": 4.0, **cfg.get("network", {})})
    except ValueError as exc:
        raise ConfigError(f"network: {exc}")


def _sim_from_config(cfg: dict, seed_override: int | None) -> SimConfig:
    # SimConfig supplies the defaults; a bad sim.seed is refused even under --seed
    given = cfg.get("sim", {})
    values = {key: given[key] for key in ("seed", "n_bs_target", "n_realizations") if key in given}
    if seed_override is not None:
        values["seed"] = seed_override
    try:
        return SimConfig(**values)
    except ValueError as exc:
        raise ConfigError(f"sim: {exc}")


def _range(cfg: dict, name: str, start: float, stop: float, step: float) -> tuple[float, ...]:
    """grid.{name}_start to grid.{name}_stop, both ends in, by grid.{name}_step (defaults as given)."""
    start, stop, step = (_get(cfg, "grid", f"{name}_{end}", default)
                         for end, default in (("start", start), ("stop", stop), ("step", step)))
    if step <= 0.0:
        raise ConfigError(f"grid.{name}_step must be positive, got {step}")
    if stop < start:
        raise ConfigError(f"grid.{name}_stop {stop} is below {name}_start {start}")
    return tuple(float(v) for v in np.arange(start, stop + step / 2.0, step))


def _gamma_grid(cfg: dict, force_db: bool) -> tuple[float, ...]:
    """Threshold axis in linear units."""
    axis = _range(cfg, "gamma", -10.0, 30.0, 1.0)
    if force_db or _get(cfg, "grid", "gamma_unit", "db") == "db":
        return tuple(_db_to_linear(v) for v in axis)
    if axis[0] < 0.0:
        raise ConfigError(
            f"gamma grid must be nonnegative in linear units (starts at {axis[0]}); "
            "use gamma_unit=db or --db for a dB axis"
        )
    return axis


def _beta_axis(cfg: dict, default: tuple[float, ...]) -> tuple[float, ...]:
    betas = _get(cfg, "grid", "betas", None)
    ranged = sorted((_BETA_KEYS - {"betas"}) & set(cfg.get("grid", {})))
    if betas is not None:
        if ranged:
            keys = ", ".join(f"grid.{key}" for key in ranged)
            raise ConfigError(f"grid.betas lists the betas; {keys} would be ignored, set one or the other")
        return betas
    if ranged:
        return _range(cfg, "beta", 2.5, 5.0, 0.125)
    return default


def _resolve_kind(cfg: dict, command: str) -> ExperimentKind:
    allowed = [kind for kind, row in _KINDS.items() if row.command == command]
    raw = cfg.get("experiment", {}).get("kind")
    if raw is None:
        return allowed[0]
    try:
        kind = ExperimentKind(raw)
    except ValueError:
        names = ", ".join(k.value for k in ExperimentKind)
        raise ConfigError(f"experiment.kind {raw!r} is not one of: {names}")
    if kind not in allowed:
        raise ConfigError(
            f"experiment.kind {kind.value} is not valid for the {command} subcommand "
            f"(expected one of: {', '.join(k.value for k in allowed)})"
        )
    return kind


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    cfg = parse_config(args.config) if args.config else {}
    kind = _resolve_kind(cfg, args.command)
    row = _KINDS[kind]
    output = args.out if args.out else cfg.get("experiment", {}).get("output")
    sim = _sim_from_config(cfg, args.seed)
    params = _network_from_config(cfg, row.lambda_bs)
    grid: tuple[float, ...] = ()
    if "gamma" in row.reads:
        grid = _gamma_grid(cfg, args.db)
    if "x" in row.reads:
        default = tuple(float(v) for v in np.arange(0.0, 20.001, 0.25))
        grid = _get(cfg, "grid", "x_values", default)
    ratios = _get(cfg, "grid", "ratios", _RATIO_GRID) if "ratios" in row.reads else ()
    spec = ExperimentSpec(
        kind=kind, params=params, sim=sim, output_path=output, grid=grid,
        betas=_beta_axis(cfg, row.betas(params)) if row.betas else (),
        ratios=ratios,
        idle_mode=_get(cfg, "sim", "idle_mode", False) and "idle_mode" in row.reads,
        with_mc=_get(cfg, "sim", "with_mc", False) and row.mc is not None,
        jobs=args.jobs,
        quick=getattr(args, "quick", False),
    )
    used = _used_keys(spec, args, cfg)
    ignored = [f"{section}.{key}" for section, items in cfg.items() for key in items
               if not used[f"{section}.{key}"]]
    if ignored:
        print(f"{args.command}: {kind.value} does not use config keys {', '.join(ignored)}", file=sys.stderr)
    return spec


# rows joined per write: one write for a curve CSV, one bounded piece of a large sample dump
_CHUNK = 4096


def _write_csv(path: str | None, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """Write header and rows of str cells (stdout if path is None), cells joined by "," and lines ended by "\n"."""
    lines = map(",".join, chain([header], rows))
    with contextlib.nullcontext(sys.stdout) if path is None else _open_output(path, "w") as fh:
        while chunk := list(islice(lines, _CHUNK)):
            chunk.append("")
            fh.write("\n".join(chunk))


def _open_output(path: str, mode: str):
    try:
        return open(path, mode, newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}")


def _quoted(cells: Sequence[str]) -> list[str]:
    """Text cells as csv.writer(fh, lineterminator="\n") writes them.

    A cell holding ",", '"' or "\n" goes in quotes with its quotes doubled
    ("\r" does not count), and a row of one empty cell is written '""'.
    """
    if len(cells) == 1 and cells[0] == "":
        return ['""']
    return ['"' + c.replace('"', '""') + '"' if "," in c or '"' in c or "\n" in c else c for c in cells]


def _reprs(values: Iterable) -> list[str]:
    """The cell of each Python float or int: repr, as csv.writer spells it (call .tolist() on arrays first)."""
    return list(map(repr, values))


# what a runner returns: header, rows of str cells (None: write no CSV) and
# exit code; run_experiment adds the Monte Carlo columns to the header and
# writes the CSV
_Table = tuple[list[str], Iterable[Sequence[str]] | None, int]


def _mc_samples(spec: ExperimentSpec, beta: float, lambda_ue: float):
    # fully loaded curves simulate no users, the load curves idle mode
    from .simulator import run_simulation

    p = replace(spec.params, beta=beta, lambda_ue=lambda_ue)
    return run_simulation(p, spec.sim, idle_mode=lambda_ue > 0.0, jobs=spec.jobs)


def _threshold_cells(spec: ExperimentSpec) -> list[tuple[str, str]]:
    """The gamma and gamma_db cells of each threshold (gamma = 0 is -inf dB)."""
    return [(repr(g), repr(_linear_to_db(g) if g > 0 else float("-inf"))) for g in spec.grid]


def _load_models(spec: ExperimentSpec) -> list[LoadModel]:
    return [load_model(ratio * spec.params.lambda_bs, spec.params.lambda_bs) for ratio in spec.ratios]


def _coverage_rows(
    spec: ExperimentSpec, thresholds: list[tuple[str, str]], beta: float,
    loads: list[tuple[tuple[str, ...], float, float]],
) -> list[tuple[str, ...]]:
    """One row per (load, threshold): lead cells, gamma, gamma in dB, both coverage kinds[, MC].

    loads holds each load's (lead cells, p_active, lambda_ue); one pcov_general call
    per kind covers every load.
    """
    grid = np.asarray(spec.grid)
    p = replace(spec.params, beta=beta)
    p_active = np.array([[pa] for _, pa, _ in loads])
    curves = [pcov_general(grid, p, p_active, kind) for kind in ("exact", "two_piece")]
    rows = []
    for (lead, _, lambda_ue), *columns in zip(loads, *curves):
        if spec.with_mc:
            from .simulator import estimate_coverage

            columns += estimate_coverage(_mc_samples(spec, beta, lambda_ue), spec.grid)
        rows += [(*lead, *g, *vals) for g, *vals in zip(thresholds, *(_reprs(c.tolist()) for c in columns))]
    return rows


def _run_coverage(spec: ExperimentSpec) -> _Table:
    thresholds = _threshold_cells(spec)
    rows = [row for beta in spec.betas for row in _coverage_rows(spec, thresholds, beta, [((repr(beta),), 1.0, 0.0)])]
    return ["beta", "gamma", "gamma_db", "pcov_exact", "pcov_approx"], rows, 0


def _run_coverage_partial_load(spec: ExperimentSpec) -> _Table:
    thresholds = _threshold_cells(spec)
    loads = _load_models(spec)
    rows = []
    for beta in spec.betas:
        rows += _coverage_rows(spec, thresholds, beta, [
            ((repr(beta), repr(ratio), repr(lm.p_active)), lm.p_active, ratio * spec.params.lambda_bs)
            for ratio, lm in zip(spec.ratios, loads)
        ])
    return ["beta", "ratio", "p_active", "gamma", "gamma_db", "pcov_exact", "pcov_approx"], rows, 0


def _run_rate_vs_beta(spec: ExperimentSpec) -> _Table:
    rows = []
    for beta, exact in zip(spec.betas, rate_quadrature(spec.betas, 1.0, "exact")):
        closed = rate_closed_general(beta)
        row = [*_reprs((beta, exact.value, closed.value)), closed.method.value]
        if spec.with_mc:
            from .simulator import estimate_rates

            peak, _ = estimate_rates(_mc_samples(spec, beta, 0.0))
            row += _reprs((peak.value, peak.stderr))
        rows.append(row)
    return ["beta", "rate_exact_quad", "rate_closed", "closed_method"], rows, 0


def _run_rate_vs_ratio(spec: ExperimentSpec, actual: bool) -> _Table:
    name = "actual" if actual else "peak"
    loads = _load_models(spec)
    p_active = [lm.p_active for lm in loads]
    leads = [_reprs((ratio, lm.p_active, lm.p_selection)) for ratio, lm in zip(spec.ratios, loads)]
    # the actual rate is the peak rate times the selection probability
    shares = [lm.p_selection if actual else 1.0 for lm in loads]
    rows = []
    per_beta = zip(spec.betas, *(rate_quadrature(spec.betas, p_active, kind) for kind in ("exact", "two_piece")))
    for beta, ref_peaks, closed_peaks in per_beta:
        b = repr(beta)
        for ratio, lead, share, ref, closed in zip(spec.ratios, leads, shares, ref_peaks, closed_peaks):
            row = [b, *lead, repr(ref.value * share), repr(closed.value * share), closed.method.value]
            if spec.with_mc:
                from .simulator import estimate_rates

                mc = estimate_rates(_mc_samples(spec, beta, ratio * spec.params.lambda_bs))[1 if actual else 0]
                row += _reprs((mc.value, mc.stderr))
            rows.append(row)
    header = ["beta", "ratio", "p_active", "p_selection", f"rate_{name}_exact", f"rate_{name}_closed"]
    return header + ["closed_method"], rows, 0


def _run_mgf_profile(spec: ExperimentSpec) -> _Table:
    rows = []
    xs = np.asarray(spec.grid)
    x_cells = _reprs(spec.grid)
    for beta in spec.betas:
        p = replace(spec.params, beta=beta)
        c = solve_c(beta)
        lead = _reprs((beta, c.c_exact, c.c_fit))
        me, ma = mgf(xs, 1.0, p, "exact"), mgf(xs, 1.0, p, "two_piece")
        # where the exact MGF underflows to 0 the relative error is nan
        # (both 0) or inf; the cell says so, with no warning on stderr
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.abs(ma - me) / me
        rows += [(*lead, *vals) for vals in zip(x_cells, *(_reprs(v.tolist()) for v in (me, ma, rel)))]
    return ["beta", "c_exact", "c_fit", "x", "mgf_exact", "mgf_approx", "rel_error"], rows, 0


def _run_raw_samples(spec: ExperimentSpec) -> _Table:
    from .simulator import run_simulation

    samples = run_simulation(spec.params, spec.sim, idle_mode=spec.idle_mode, jobs=spec.jobs)
    columns = (samples.sir_values, samples.n_users_in_cell, samples.n_active_bs)

    def rows() -> Iterable[tuple[str, ...]]:
        # formatted a chunk at a time as they are written, so no dump is held as text
        for lo in range(0, samples.sir_values.size, _CHUNK):
            cells = [_reprs(c[lo:lo + _CHUNK].tolist()) for c in columns]
            yield from zip(map(repr, range(lo, lo + len(cells[0]))), *cells)

    return ["realization_id", "sir", "n_users", "n_active_bs"], rows(), 0


def _run_validate(spec: ExperimentSpec) -> _Table:
    # the suite prints its own report; the CSV is written only on request
    from .validation import run_all

    results = run_all(seed=spec.sim.seed, jobs=spec.jobs, quick=spec.quick)
    rows = [_quoted([r.label, str(r.passed), r.message, f"{r.elapsed_s:.3f}"]) for r in results]
    code = 0 if all(r.passed for r in results) else 1
    return ["check", "passed", "message", "elapsed_s"], rows if spec.output_path else None, code


@dataclass(frozen=True)
class _Kind:
    """How one experiment kind is resolved from a config and run.

    axis: the ExperimentSpec field swept (None: none). reads: config inputs
    beyond network, sim and betas ("gamma" thresholds, "x" MGF arguments,
    "ratios", "idle_mode"). betas: default betas from the network (None:
    betas unread). mc: prefix of the columns sim.with_mc adds (None: no
    such columns). lambda_bs: default station density.
    """

    command: str
    runner: Callable[[ExperimentSpec], _Table]
    axis: str | None = None
    reads: tuple[str, ...] = ()
    betas: Callable[[NetworkParams], tuple[float, ...]] | None = None
    mc: str | None = None
    lambda_bs: float = _LAMBDA_REF


def _network_beta(p: NetworkParams) -> tuple[float, ...]:
    """The default beta axis of the kinds that read network.beta when no grid beta key is set."""
    return (p.beta,)


# Table order fixes each subcommand's default kind (its first) and the
# order of the kinds named in its refusal message.
_KINDS = {
    ExperimentKind.COVERAGE_VS_GAMMA: _Kind(
        "coverage", _run_coverage, axis="grid", reads=("gamma",),
        betas=lambda p: (2.5, 3.0, 3.5, 4.0, 4.5, 5.0), mc="pcov",
    ),
    ExperimentKind.RATE_VS_BETA: _Kind(
        "rate", _run_rate_vs_beta, axis="betas",
        betas=lambda p: tuple(float(b) for b in np.arange(2.5, 5.001, 0.125)), mc="rate",
    ),
    ExperimentKind.PEAK_RATE_VS_RATIO: _Kind(
        "load-curves", partial(_run_rate_vs_ratio, actual=False), axis="ratios",
        reads=("ratios",), betas=lambda p: (3.0, 4.0, 5.0), mc="rate",
    ),
    ExperimentKind.ACTUAL_RATE_VS_RATIO: _Kind(
        "load-curves", partial(_run_rate_vs_ratio, actual=True), axis="ratios",
        reads=("ratios",), betas=lambda p: (3.0, 4.0, 5.0), mc="rate",
    ),
    ExperimentKind.COVERAGE_PARTIAL_LOAD: _Kind(
        "load-curves", _run_coverage_partial_load, axis="grid",
        reads=("gamma", "ratios"), betas=_network_beta, mc="pcov",
    ),
    # the default density gives a unit exponent prefactor at l0 = 1
    ExperimentKind.MGF_PROFILE: _Kind(
        "mgf", _run_mgf_profile, axis="grid", reads=("x",), betas=_network_beta, lambda_bs=1.0 / math.pi,
    ),
    ExperimentKind.RAW_SAMPLES: _Kind("simulate", _run_raw_samples, reads=("idle_mode",)),
    # the suite runs on its own fixed scenarios; only the seed comes from the config
    ExperimentKind.VALIDATE: _Kind("validate", _run_validate),
}


def _used_keys(spec: ExperimentSpec, args: argparse.Namespace, cfg: dict) -> dict[str, bool]:
    """Whether the run of spec reads the value of each config key ("section.key").

    Coverage and rate are interference-limited: without noise they depend
    on neither the transmit power nor the path-loss prefactor, and on the
    station density only through the ratios. So a key counts as used only
    on the branches a run takes: noise, Monte Carlo, the kind's reads and
    betas, and the --out, --seed and --db overrides.
    """
    row = _KINDS[spec.kind]
    mgf, raw, gamma, ratios = (name in row.reads for name in ("x", "idle_mode", "gamma", "ratios"))
    simulates = raw or spec.with_mc
    # the coverage kinds and simulate add the noise; the rate kinds read it to refuse it
    reads_noise = row.mc is not None or raw
    noisy = reads_noise and spec.params.sigma_n2 > 0.0
    own_beta = row.betas is _network_beta and not _BETA_KEYS & set(cfg.get("grid", {}))
    return {key: on for keys, on in (
        ("experiment.kind", True),
        ("experiment.output", not args.out),
        ("network.lambda_bs", mgf or simulates or noisy or ratios),
        ("network.lambda_ue sim.idle_mode", raw),
        ("network.beta", raw or own_beta),
        ("network.kappa network.p_tx", mgf or noisy),
        ("network.sigma_n2", reads_noise),
        ("grid.gamma_start grid.gamma_stop grid.gamma_step", gamma),
        ("grid.gamma_unit", gamma and not args.db),
        ("grid.x_values", mgf),
        ("grid.ratios", ratios),
        (" ".join(f"grid.{key}" for key in _BETA_KEYS), row.betas is not None),
        ("sim.with_mc", row.mc is not None),
        ("sim.n_bs_target sim.n_realizations", simulates),
        ("sim.seed", (simulates or spec.kind is ExperimentKind.VALIDATE) and args.seed is None),
    ) for key in keys.split()}


def run_experiment(spec: ExperimentSpec) -> int:
    """Run one resolved experiment and write its CSV; returns the process exit code.

    An unwritable output path is refused before the run starts. Opening it
    for append truncates nothing, and a run that fails removes the file
    only if this call created it.
    """
    row = _KINDS[spec.kind]
    path = spec.output_path
    created = False
    if path is not None:
        created = not os.path.lexists(path)
        _open_output(path, "a").close()
    try:
        header, rows, code = row.runner(spec)
        if spec.with_mc:
            header += [f"{row.mc}_mc", f"{row.mc}_mc_stderr"]
        if rows is not None:
            _write_csv(path, header, rows)
    except BaseException:
        if created:
            os.remove(path)
        raise
    return code


def _add_arguments(parser: argparse.ArgumentParser, name: str) -> None:
    """The options of subcommand name, on its subparser or on its own parser."""
    parser.add_argument("--config", help="experiment config file (INI syntax, strict keys)")
    parser.add_argument("--seed", type=int, help="override the simulation seed")
    parser.add_argument("--out", help="output CSV path (default: stdout)")
    parser.add_argument("--jobs", type=int, default=1, help="parallel simulation workers")
    if any("gamma" in row.reads for row in _KINDS.values() if row.command == name):
        parser.add_argument("--db", action="store_true", help="interpret the gamma grid in dB")
    if name == "validate":
        parser.add_argument(
            "--quick", action="store_true",
            help="smaller Monte Carlo sizes (smoke run, minutes to seconds)",
        )


def _build_parser() -> argparse.ArgumentParser:
    """The full CLI parser: the top-level usage and all six subparsers.

    Each subparser has the prog "ppcell <name>" of its own parser in _parse_args, so their texts agree.
    """
    parser = argparse.ArgumentParser(
        prog="ppcell",
        usage="%(prog)s [-h] {" + ",".join(_COMMANDS) + "} ...",
        description=(
            "Coverage and ergodic-rate curves for Poisson cellular downlinks: "
            "closed forms, quadrature, and a Monte Carlo cross-check."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, prog="ppcell")
    for name, help_text in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_text), name)
    return parser


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """argv parsed as _build_parser() would, by the named subcommand's own parser where it can.

    The full parser takes about 1 ms to build, as long as the maths of an analytic call. It is
    built only when argv names no subcommand or the own parser leaves arguments over, and then
    parses argv again to print its usage, help or error.
    """
    if argv and argv[0] in _COMMANDS:
        own = argparse.ArgumentParser(prog=f"ppcell {argv[0]}")
        _add_arguments(own, argv[0])
        args, rest = own.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return _build_parser().parse_args(argv)


def _run(argv: Sequence[str]) -> int:
    args = _parse_args(argv)
    try:
        return run_experiment(_spec_from_args(args))
    # an allocation the config asks for that fails (numpy names its size) is refused like a bad value
    except (ConfigError, ValueError, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        try:
            return _run(argv)
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (`ppcell mgf | head -2`): as the Python docs'
        # SIGPIPE note says, point stdout at devnull so that the flush at exit
        # cannot fail again, and exit as a process killed by SIGPIPE would
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            return 141
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
