"""Experiment runner: reproduce the coverage/rate curves as CSV series.

Subcommands map to curve families (coverage, rate, load-curves, mgf), raw
sample dumps (simulate), and the self-validation suite (validate). Every
run is a pure function of the config file plus (--seed, --jobs); CSV output
is byte-identical across reruns. Thresholds are dB only at this boundary;
everything below works in linear units.

Exit codes: 0 success, 1 validation suite reported failures, 2 config or
domain error, 3 numerical failure (message carries the achieved tolerance).
"""

from __future__ import annotations

import argparse
import configparser
import csv
import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Iterable, Sequence

import numpy as np

from .analytics import (
    PcovKind,
    load_model,
    pcov,
    rate_closed_general,
    rate_quadrature,
)
from .mgf import NetworkParams, NonConvergenceError, mgf, solve_c
from .simulator import SimConfig, estimate_coverage, estimate_rates, run_simulation
from .validation import _LAMBDA_REF, _RATIO_GRID, _db_to_linear, run_all

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
    """Fully resolved experiment: kind, parameters, axis, and output target.

    grid is the primary axis (thresholds, path-loss exponents, MGF arguments
    or density ratios depending on kind); kinds without an axis (Validate,
    RawSamples) carry a singleton placeholder.
    """

    kind: ExperimentKind
    params: NetworkParams
    grid: tuple[float, ...]
    sim: SimConfig
    output_path: str | None = None
    gamma_in_db: bool = True
    betas: tuple[float, ...] = ()
    ratios: tuple[float, ...] = ()
    idle_mode: bool = False
    with_mc: bool = False
    jobs: int = 1
    quick: bool = False

    def __post_init__(self) -> None:
        if not self.grid:
            raise ConfigError("grid must be nonempty")
        for a, b in zip(self.grid, self.grid[1:]):
            if not b > a:
                raise ConfigError(f"grid must be strictly increasing, got {a} before {b}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be positive, got {self.jobs}")
        for ratio in self.ratios:
            if ratio <= 0.0:
                raise ConfigError(f"grid.ratios must be positive, got {ratio}")


_ALLOWED_KEYS = {
    "experiment": {"kind", "output"},
    "network": {"lambda_bs", "lambda_ue", "beta", "kappa", "p_tx", "sigma_n2"},
    "grid": {
        "gamma_start",
        "gamma_stop",
        "gamma_step",
        "gamma_unit",
        "x_values",
        "ratios",
        "betas",
        "beta_start",
        "beta_stop",
        "beta_step",
    },
    "sim": {"n_bs_target", "n_realizations", "seed", "idle_mode", "with_mc"},
}

_KINDS_BY_COMMAND = {
    "coverage": (ExperimentKind.COVERAGE_VS_GAMMA,),
    "rate": (ExperimentKind.RATE_VS_BETA,),
    "load-curves": (
        ExperimentKind.PEAK_RATE_VS_RATIO,
        ExperimentKind.ACTUAL_RATE_VS_RATIO,
        ExperimentKind.COVERAGE_PARTIAL_LOAD,
    ),
    "mgf": (ExperimentKind.MGF_PROFILE,),
    "simulate": (ExperimentKind.RAW_SAMPLES,),
    "validate": (ExperimentKind.VALIDATE,),
}

def _linear_to_db(x: float) -> float:
    return 10.0 * math.log10(x)


def parse_config(path: str) -> dict[str, dict[str, str]]:
    """Strict flat-key config parse: unknown sections or keys are errors."""
    cp = configparser.ConfigParser()
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}")
    out: dict[str, dict[str, str]] = {}
    for section in cp.sections():
        if section not in _ALLOWED_KEYS:
            raise ConfigError(f"unknown config section [{section}] in {path}")
        out[section] = {}
        for key, value in cp.items(section):
            if key not in _ALLOWED_KEYS[section]:
                raise ConfigError(f"unknown config key {section}.{key} in {path}")
            out[section][key] = value
    return out


def _get_float(cfg: dict, section: str, key: str, default: float) -> float:
    raw = cfg.get(section, {}).get(key)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key} must be a number, got {raw!r}")


def _get_int(cfg: dict, section: str, key: str, default: int) -> int:
    raw = cfg.get(section, {}).get(key)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key} must be an integer, got {raw!r}")


def _get_bool(cfg: dict, section: str, key: str, default: bool) -> bool:
    raw = cfg.get(section, {}).get(key)
    if raw is None:
        return default
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{section}.{key} must be a boolean, got {raw!r}")


def _get_list(cfg: dict, section: str, key: str) -> tuple[float, ...] | None:
    raw = cfg.get(section, {}).get(key)
    if raw is None:
        return None
    parts = [t for t in raw.replace(",", " ").split() if t]
    try:
        return tuple(float(t) for t in parts)
    except ValueError:
        raise ConfigError(f"{section}.{key} must be a list of numbers, got {raw!r}")


def _network_from_config(cfg: dict, default_lambda: float = _LAMBDA_REF) -> NetworkParams:
    try:
        return NetworkParams(
            lambda_bs=_get_float(cfg, "network", "lambda_bs", default_lambda),
            lambda_ue=_get_float(cfg, "network", "lambda_ue", 0.0),
            beta=_get_float(cfg, "network", "beta", 4.0),
            kappa=_get_float(cfg, "network", "kappa", 1.0),
            p_tx=_get_float(cfg, "network", "p_tx", 1.0),
            sigma_n2=_get_float(cfg, "network", "sigma_n2", 0.0),
        )
    except ValueError as exc:
        raise ConfigError(f"network: {exc}")


def _sim_from_config(cfg: dict, seed_override: int | None) -> SimConfig:
    seed = _get_int(cfg, "sim", "seed", 0)
    if seed_override is not None:
        seed = seed_override
    try:
        return SimConfig(
            n_bs_target=_get_int(cfg, "sim", "n_bs_target", 500),
            n_realizations=_get_int(cfg, "sim", "n_realizations", 10000),
            seed=seed,
        )
    except ValueError as exc:
        raise ConfigError(f"sim: {exc}")


def _gamma_grid(cfg: dict, force_db: bool) -> tuple[tuple[float, ...], bool]:
    """Threshold axis in linear units plus whether the config spoke dB."""
    unit = cfg.get("grid", {}).get("gamma_unit", "db").strip().lower()
    if unit not in ("db", "linear"):
        raise ConfigError(f"grid.gamma_unit must be 'db' or 'linear', got {unit!r}")
    in_db = force_db or unit == "db"
    start = _get_float(cfg, "grid", "gamma_start", -10.0)
    stop = _get_float(cfg, "grid", "gamma_stop", 30.0)
    step = _get_float(cfg, "grid", "gamma_step", 1.0)
    if step <= 0.0:
        raise ConfigError(f"grid.gamma_step must be positive, got {step}")
    if stop < start:
        raise ConfigError(f"grid.gamma_stop {stop} is below gamma_start {start}")
    axis = tuple(float(v) for v in np.arange(start, stop + step / 2.0, step))
    if in_db:
        return tuple(_db_to_linear(v) for v in axis), True
    if axis[0] < 0.0:
        raise ConfigError(
            f"gamma grid must be nonnegative in linear units (starts at {axis[0]}); "
            "use gamma_unit=db or --db for a dB axis"
        )
    return axis, False


def _beta_axis(cfg: dict, default: tuple[float, ...]) -> tuple[float, ...]:
    betas = _get_list(cfg, "grid", "betas")
    if betas is not None:
        return betas
    if "grid" in cfg and {"beta_start", "beta_stop", "beta_step"} & set(cfg["grid"]):
        start = _get_float(cfg, "grid", "beta_start", 2.5)
        stop = _get_float(cfg, "grid", "beta_stop", 5.0)
        step = _get_float(cfg, "grid", "beta_step", 0.125)
        if step <= 0.0:
            raise ConfigError(f"grid.beta_step must be positive, got {step}")
        return tuple(float(v) for v in np.arange(start, stop + step / 2.0, step))
    return default


def _resolve_kind(cfg: dict, command: str) -> ExperimentKind:
    allowed = _KINDS_BY_COMMAND[command]
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
    command = args.command
    kind = _resolve_kind(cfg, command)
    output = args.out if args.out else cfg.get("experiment", {}).get("output")
    seed_override = args.seed
    sim = _sim_from_config(cfg, seed_override)
    idle_mode = _get_bool(cfg, "sim", "idle_mode", False)
    with_mc = _get_bool(cfg, "sim", "with_mc", False)
    jobs = args.jobs

    if kind is ExperimentKind.COVERAGE_VS_GAMMA:
        params = _network_from_config(cfg)
        grid, in_db = _gamma_grid(cfg, args.db)
        betas = _beta_axis(cfg, (2.5, 3.0, 3.5, 4.0, 4.5, 5.0))
        return ExperimentSpec(
            kind=kind, params=params, grid=grid, sim=sim, output_path=output,
            gamma_in_db=in_db, betas=betas, with_mc=with_mc, jobs=jobs,
        )
    if kind is ExperimentKind.RATE_VS_BETA:
        params = _network_from_config(cfg)
        betas = _beta_axis(cfg, tuple(float(b) for b in np.arange(2.5, 5.001, 0.125)))
        return ExperimentSpec(
            kind=kind, params=params, grid=betas, sim=sim, output_path=output,
            betas=betas, with_mc=with_mc, jobs=jobs,
        )
    if kind is ExperimentKind.COVERAGE_PARTIAL_LOAD:
        params = _network_from_config(cfg)
        grid, in_db = _gamma_grid(cfg, args.db)
        ratios = _get_list(cfg, "grid", "ratios") or _RATIO_GRID
        betas = _beta_axis(cfg, (params.beta,))
        return ExperimentSpec(
            kind=kind, params=params, grid=grid, sim=sim, output_path=output,
            gamma_in_db=in_db, betas=betas, ratios=ratios, with_mc=with_mc, jobs=jobs,
        )
    if kind in (ExperimentKind.PEAK_RATE_VS_RATIO, ExperimentKind.ACTUAL_RATE_VS_RATIO):
        params = _network_from_config(cfg)
        ratios = _get_list(cfg, "grid", "ratios") or _RATIO_GRID
        betas = _beta_axis(cfg, (3.0, 4.0, 5.0))
        return ExperimentSpec(
            kind=kind, params=params, grid=ratios, sim=sim, output_path=output,
            betas=betas, ratios=ratios, with_mc=with_mc, jobs=jobs,
        )
    if kind is ExperimentKind.MGF_PROFILE:
        # default density gives a unit exponent prefactor at l0 = 1
        params = _network_from_config(cfg, default_lambda=1.0 / math.pi)
        xs = _get_list(cfg, "grid", "x_values")
        if xs is None:
            xs = tuple(float(v) for v in np.arange(0.0, 20.001, 0.25))
        betas = _beta_axis(cfg, (params.beta,))
        return ExperimentSpec(
            kind=kind, params=params, grid=xs, sim=sim, output_path=output,
            betas=betas, jobs=jobs,
        )
    if kind is ExperimentKind.RAW_SAMPLES:
        params = _network_from_config(cfg)
        if idle_mode and params.lambda_ue <= 0.0:
            raise ConfigError("sim.idle_mode requires network.lambda_ue > 0")
        return ExperimentSpec(
            kind=kind, params=params, grid=(0.0,), sim=sim, output_path=output,
            idle_mode=idle_mode, jobs=jobs,
        )
    # Validate
    params = _network_from_config(cfg)
    return ExperimentSpec(
        kind=kind, params=params, grid=(0.0,), sim=sim, output_path=output,
        jobs=jobs, quick=getattr(args, "quick", False),
    )


def _write_csv(path: str | None, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    def emit(fh) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)

    if path is None:
        emit(sys.stdout)
    else:
        with open(path, "w", newline="") as fh:
            emit(fh)


def _mc_coverage(spec: ExperimentSpec, beta: float, lambda_ue: float, idle: bool):
    p = NetworkParams(
        lambda_bs=spec.params.lambda_bs, lambda_ue=lambda_ue, beta=beta,
        kappa=spec.params.kappa, p_tx=spec.params.p_tx, sigma_n2=spec.params.sigma_n2,
    )
    samples = run_simulation(p, spec.sim, idle_mode=idle, jobs=spec.jobs)
    return estimate_coverage(samples, spec.grid)


def _run_coverage(spec: ExperimentSpec) -> int:
    header = ["beta", "gamma", "gamma_db", "pcov_exact", "pcov_approx"]
    if spec.with_mc:
        header += ["pcov_mc", "pcov_mc_stderr"]
    rows = []
    grid = np.asarray(spec.grid)
    for beta in spec.betas:
        exact, approx = pcov(grid, beta, "exact"), pcov(grid, beta, "two_piece")
        mc = _mc_coverage(spec, beta, 0.0, idle=False) if spec.with_mc else None
        for i, (g, e, a) in enumerate(zip(spec.grid, exact.tolist(), approx.tolist())):
            row = [beta, g, _linear_to_db(g) if g > 0 else float("-inf"), e, a]
            if mc is not None:
                row += [float(mc[0][i]), float(mc[1][i])]
            rows.append(row)
    _write_csv(spec.output_path, header, rows)
    return 0


def _run_rate_vs_beta(spec: ExperimentSpec) -> int:
    header = ["beta", "rate_exact_quad", "rate_closed", "closed_method"]
    if spec.with_mc:
        header += ["rate_mc", "rate_mc_stderr"]
    rows = []
    for beta in spec.betas:
        exact = rate_quadrature(beta, 1.0, PcovKind.EXACT)
        closed = rate_closed_general(beta)
        row = [beta, exact.value, closed.value, closed.method.value]
        if spec.with_mc:
            p = NetworkParams(
                lambda_bs=spec.params.lambda_bs, beta=beta,
                kappa=spec.params.kappa, p_tx=spec.params.p_tx,
            )
            samples = run_simulation(p, spec.sim, jobs=spec.jobs)
            peak, _ = estimate_rates(samples)
            row += [peak.value, peak.stderr]
        rows.append(row)
    _write_csv(spec.output_path, header, rows)
    return 0


def _run_coverage_partial_load(spec: ExperimentSpec) -> int:
    header = ["beta", "ratio", "p_active", "gamma", "gamma_db", "pcov_exact", "pcov_approx"]
    if spec.with_mc:
        header += ["pcov_mc", "pcov_mc_stderr"]
    rows = []
    grid = np.asarray(spec.grid)
    for beta in spec.betas:
        for ratio in spec.ratios:
            lm = load_model(ratio * spec.params.lambda_bs, spec.params.lambda_bs)
            exact = pcov(grid, beta, "exact", lm.p_active)
            approx = pcov(grid, beta, "two_piece", lm.p_active)
            mc = (
                _mc_coverage(spec, beta, ratio * spec.params.lambda_bs, idle=True)
                if spec.with_mc
                else None
            )
            for i, (g, e, a) in enumerate(zip(spec.grid, exact.tolist(), approx.tolist())):
                row = [
                    beta, ratio, lm.p_active, g,
                    _linear_to_db(g) if g > 0 else float("-inf"), e, a,
                ]
                if mc is not None:
                    row += [float(mc[0][i]), float(mc[1][i])]
                rows.append(row)
    _write_csv(spec.output_path, header, rows)
    return 0


def _run_rate_vs_ratio(spec: ExperimentSpec, actual: bool) -> int:
    header = ["beta", "ratio", "p_active", "p_selection"]
    if actual:
        header += ["rate_actual_exact", "rate_actual_closed", "closed_method"]
    else:
        header += ["rate_peak_exact", "rate_peak_closed", "closed_method"]
    if spec.with_mc:
        header += ["rate_mc", "rate_mc_stderr"]
    rows = []
    for beta in spec.betas:
        loads = [load_model(ratio * spec.params.lambda_bs, spec.params.lambda_bs) for ratio in spec.ratios]
        p_active = [lm.p_active for lm in loads]
        ref_peaks = rate_quadrature(beta, p_active, PcovKind.EXACT)
        closed_peaks = rate_quadrature(beta, p_active, PcovKind.APPROX)
        for ratio, lm, ref, closed in zip(spec.ratios, loads, ref_peaks, closed_peaks):
            # the actual rate is the peak rate times the selection probability
            share = lm.p_selection if actual else 1.0
            row = [
                beta, ratio, lm.p_active, lm.p_selection,
                ref.value * share, closed.value * share, closed.method.value,
            ]
            if spec.with_mc:
                p = NetworkParams(
                    lambda_bs=spec.params.lambda_bs, lambda_ue=ratio * spec.params.lambda_bs,
                    beta=beta, kappa=spec.params.kappa, p_tx=spec.params.p_tx,
                )
                samples = run_simulation(p, spec.sim, idle_mode=True, jobs=spec.jobs)
                peak_mc, actual_mc = estimate_rates(samples)
                picked = actual_mc if actual else peak_mc
                row += [picked.value, picked.stderr]
            rows.append(row)
    _write_csv(spec.output_path, header, rows)
    return 0


def _run_mgf_profile(spec: ExperimentSpec) -> int:
    header = ["beta", "c_exact", "c_fit", "x", "mgf_exact", "mgf_approx", "rel_error"]
    rows = []
    xs = np.asarray(spec.grid)
    for beta in spec.betas:
        p = NetworkParams(
            lambda_bs=spec.params.lambda_bs, beta=beta,
            kappa=spec.params.kappa, p_tx=spec.params.p_tx,
        )
        c = solve_c(beta)
        me = mgf(xs, 1.0, p, "exact")
        ma = mgf(xs, 1.0, p, "two_piece")
        rel = np.abs(ma - me) / me
        for x, e, a, r in zip(spec.grid, me.tolist(), ma.tolist(), rel.tolist()):
            rows.append([beta, c.c_exact, c.c_fit, x, e, a, r])
    _write_csv(spec.output_path, header, rows)
    return 0


def _run_raw_samples(spec: ExperimentSpec) -> int:
    samples = run_simulation(spec.params, spec.sim, idle_mode=spec.idle_mode, jobs=spec.jobs)
    header = ["realization_id", "sir", "n_users", "n_active_bs"]
    rows = [
        [int(rid), float(sir), int(nu), int(na)]
        for rid, sir, nu, na in zip(
            samples.realization_ids, samples.sir_values,
            samples.n_users_in_cell, samples.n_active_bs,
        )
    ]
    _write_csv(spec.output_path, header, rows)
    return 0


def _run_validate(spec: ExperimentSpec) -> int:
    results = run_all(seed=spec.sim.seed, jobs=spec.jobs, quick=spec.quick)
    if spec.output_path:
        _write_csv(
            spec.output_path,
            ["check", "passed", "message", "elapsed_s"],
            [[r.label, r.passed, r.message, f"{r.elapsed_s:.3f}"] for r in results],
        )
    return 0 if all(r.passed for r in results) else 1


_RUNNERS = {
    ExperimentKind.COVERAGE_VS_GAMMA: _run_coverage,
    ExperimentKind.RATE_VS_BETA: _run_rate_vs_beta,
    ExperimentKind.COVERAGE_PARTIAL_LOAD: _run_coverage_partial_load,
    ExperimentKind.PEAK_RATE_VS_RATIO: partial(_run_rate_vs_ratio, actual=False),
    ExperimentKind.ACTUAL_RATE_VS_RATIO: partial(_run_rate_vs_ratio, actual=True),
    ExperimentKind.MGF_PROFILE: _run_mgf_profile,
    ExperimentKind.RAW_SAMPLES: _run_raw_samples,
    ExperimentKind.VALIDATE: _run_validate,
}


def run_experiment(spec: ExperimentSpec) -> int:
    """Dispatch one resolved experiment; returns the process exit code."""
    return _RUNNERS[spec.kind](spec)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppcell",
        description=(
            "Coverage and ergodic-rate curves for Poisson cellular downlinks: "
            "closed forms, quadrature, and a Monte Carlo cross-check."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "coverage": "coverage probability vs threshold (exact and approximate curves)",
        "rate": "fully loaded ergodic rate vs path-loss exponent",
        "load-curves": "idle-mode curves vs UE/BS density ratio (peak, actual, or coverage)",
        "mgf": "interference MGF profile: exact vs two-piece approximation",
        "simulate": "dump per-realization Monte Carlo samples as CSV",
        "validate": "run the full analytics-vs-simulation validation suite",
    }
    for name, help_text in specs.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="experiment config file (INI syntax, strict keys)")
        sp.add_argument("--seed", type=int, help="override the simulation seed")
        sp.add_argument("--out", help="output CSV path (default: stdout)")
        sp.add_argument("--jobs", type=int, default=1, help="parallel simulation workers")
        sp.add_argument("--db", action="store_true", help="interpret the gamma grid in dB")
        if name == "validate":
            sp.add_argument(
                "--quick", action="store_true",
                help="smaller Monte Carlo sizes (smoke run, minutes to seconds)",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = _spec_from_args(args)
        return run_experiment(spec)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
