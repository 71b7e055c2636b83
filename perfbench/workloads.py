"""Seeded workloads: the CLI calls that make up one op, and the checks on them.

Every input the program sees (INI configs, grids, argv, simulation seeds)
is drawn here from the workload seed and the op index, so no two ops of a
run share an input. Each op's CSV output is checked, right after the op and
outside its timing, against an independent route from oracle.py. Checks that
need mpmath (a seeded sample of Kummer-form cells) and the z test of Monte
Carlo samples pooled over the first ops run in finish(), after the timed
ops.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracle

PAPER_RATIOS = (0.17, 4.34, 8.51, 11.11)
LAMBDA_REF = 1.27e-6
# removable singularity of the general closed form; rate falls back to
# quadrature within +-0.02 of it
SINGULAR_BETA = (11.0 + math.sqrt(41.0)) / 4.0
BETA_RANGE = (2.1, 5.0)
# unit MGF exponent prefactor pi * lambda_bs at l0 = 1
MGF_LAMBDA = 1.0 / math.pi

# tolerances, none looser than the validation suite's gates
ANALYTIC_RTOL = 1e-10  # Kummer-form and two-piece cells
RATE_ATOL = 1e-6  # rate-closed-forms gate
GRID_ATOL = 1e-9
# Kummer-form cells per family and op that are also checked against mpmath
MPMATH_SAMPLE = 4
# family-wise false-alarm rate of the pooled Monte Carlo z tests, per run;
# 22 runs of one workload trip it with probability about 2e-3
MC_FALSE_ALARM = 1e-4

# (beta, n_bs_target): the validation suite's full-load windows
FULL_LOAD = ((3.0, 8000), (4.0, 500), (5.0, 500))
IDLE_BETA = 4.0
IDLE_BS = 500
# realizations per simulate call. The real callers use more (validate
# --quick: 2000 at full load and 600 in idle mode per call; the CLI default
# is 10000), but an op must stay short enough that a 20 s run has about 30
# ops, so op_tail_ms has 10 beyond it. The fixed cost of a CLI call (3 to
# 7 ms: config, argv, output file) is then about 3% of an mc-full op and 4%
# of an mc-idle op, where those callers pay well under 1%.
FULL_REALIZATIONS = 400
IDLE_REALIZATIONS = 50
# realizations per case pooled into the z test, fixed so that its power does
# not grow when the program gets faster: validate --quick's per-call sizes
FULL_POOLED = 2000
IDLE_POOLED = 600

MC_HEADER = ["realization_id", "sir", "n_users", "n_active_bs"]


class Mismatch(Exception):
    """Program output disagrees with the independent route."""


@dataclass
class Call:
    """One `ppcell` CLI invocation and what its output is checked against."""

    argv: list[str]
    out: Path
    family: str
    spec: dict = field(default_factory=dict)


def _ini(path: Path, sections: dict[str, dict[str, object]]) -> Path:
    lines = []
    for section, items in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in items.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


def _floats(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def _distinct(draw, n: int, digits: int) -> list[float]:
    while True:
        values = np.unique(np.round(draw(n), digits))
        if values.size == n:
            return [float(v) for v in values]


def _columns(text: str, header: list[str]) -> dict[str, np.ndarray]:
    reader = csv.reader(io.StringIO(text))
    got = next(reader, None)
    if got != header:
        raise Mismatch(f"header {got} != {header}")
    rows = list(reader)
    for row in rows:
        if len(row) != len(header):
            raise Mismatch(f"row of {len(row)} cells: {row}")
    columns = {}
    for k, name in enumerate(header):
        cells = [row[k] for row in rows]
        try:
            columns[name] = np.array(cells, dtype=object if name == "closed_method" else float)
        except ValueError as exc:
            raise Mismatch(f"unparsable cell in {name}: {exc}")
    return columns


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def _near(values, refs, rtol: float, what: str) -> None:
    values, refs = np.broadcast_arrays(np.atleast_1d(values), refs)
    ok = oracle.rel_close(values, refs, rtol)
    k = int(np.argmin(ok)) if ok.size else 0
    _expect(bool(ok.all()), f"{what} row {k}: {values[k]!r} vs oracle {refs[k]!r} (rtol {rtol:g})")


def _abs_near(values, refs, atol: float, what: str) -> None:
    values, refs = np.broadcast_arrays(np.atleast_1d(values), refs)
    ok = np.isfinite(values) & (np.abs(values - refs) <= atol)
    k = int(np.argmin(ok)) if ok.size else 0
    _expect(bool(ok.all()), f"{what} row {k}: {values[k]!r} vs oracle {refs[k]!r} (atol {atol:g})")


def _per_beta(fn, beta: np.ndarray, *args) -> np.ndarray:
    """fn(b, *args) for every distinct beta b, on the rows that have it."""
    out = np.empty(beta.shape)
    for b in np.unique(beta):
        rows = beta == b
        out[rows] = fn(float(b), *(a[rows] if np.ndim(a) else a for a in args))
    return out


class Curves:
    """Figure sets: the six analytic CSV families on seeded grids.

    One op is one figure set, drawn afresh from (seed, op index), so the
    program never sees an input twice in a run, as in separate CLI
    invocations. Even ops put one rate beta inside the closed form's
    quadrature-fallback window.
    """

    name = "curves"
    sim_configs: tuple = ()

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        # (op, what, value, kind, beta, argument, p_active) checked in finish()
        self.mp_pending: list[tuple] = []

    def op(self, i: int) -> list[Call]:
        rng = np.random.default_rng([self.seed, i])

        def betas(n: int) -> list[float]:
            return _distinct(lambda m: rng.uniform(*BETA_RANGE, m), n, 4)

        start = round(-10.0 + rng.uniform(0.0, 1.0), 6)
        fine = {"gamma_start": repr(start), "gamma_stop": "30.0", "gamma_step": repr((30.0 - start) / 40), "gamma_unit": "db"}
        coarse = dict(fine, gamma_step=repr((30.0 - start) / 20))
        cov_betas = betas(3)
        rate_betas = betas(5)
        if i % 2 == 0:
            rate_betas[int(rng.integers(5))] = round(SINGULAR_BETA + rng.uniform(-0.015, 0.015), 4)
            rate_betas = sorted(set(rate_betas))
        load_betas = sorted({3.0, 4.0, *betas(1)})
        ratios = _distinct(lambda m: 10.0 ** rng.uniform(-1.0, math.log10(20.0), m), 4, 4)
        mgf_betas = betas(3)
        xs = _distinct(lambda m: rng.uniform(0.0, 20.0, m), 81, 6)

        def call(command: str, family: str, sections: dict, spec: dict) -> Call:
            ini = _ini(self.work / f"{family}.ini", sections)
            out = self.work / f"{family}.csv"
            return Call([command, "--config", str(ini), "--out", str(out)], out, family, spec)

        load = {"betas": _floats(load_betas), "ratios": _floats(ratios)}
        return [
            call("coverage", "coverage", {"grid": dict(fine, betas=_floats(cov_betas))},
                 {"betas": cov_betas, "db": (start, 40)}),
            call("rate", "rate", {"grid": {"betas": _floats(rate_betas)}}, {"betas": rate_betas}),
            call("load-curves", "peak", {"experiment": {"kind": "PeakRateVsRatio"}, "grid": load},
                 {"betas": load_betas, "ratios": ratios}),
            call("load-curves", "actual", {"experiment": {"kind": "ActualRateVsRatio"}, "grid": load},
                 {"betas": load_betas, "ratios": ratios}),
            call("load-curves", "partial", {"experiment": {"kind": "CoveragePartialLoad"}, "grid": dict(coarse, **load)},
                 {"betas": load_betas, "ratios": ratios, "db": (start, 20)}),
            call("mgf", "mgf", {"network": {"lambda_bs": repr(MGF_LAMBDA)},
                                "grid": {"betas": _floats(mgf_betas), "x_values": _floats(xs)}},
                 {"betas": mgf_betas, "xs": xs}),
        ]

    def check(self, i: int, calls: list[Call]) -> tuple[int, list[str]]:
        """Count rows and check every cell; queue a seeded sample for mpmath."""
        rng = np.random.default_rng([self.seed, i, 1])
        items = 0
        errors = []
        for c in calls:
            text = c.out.read_text()
            items += text.count("\n") - 1
            sample: list[tuple] = []
            try:
                _CHECKS[c.family](c.spec, text, rng, sample)
            except Mismatch as exc:
                errors.append(f"{c.family}: {exc}")
            self.mp_pending += [(i, c.family, *cell) for cell in sample]
        return items, errors

    def finish(self) -> dict[int, list[str]]:
        """Check the queued Kummer-form cells against mpmath."""
        bad: dict[int, list[str]] = {}
        for i, family, value, kind, beta, arg, p_active in self.mp_pending:
            kummer = oracle.kummer_mp(beta, arg)
            if kind == "pcov":
                ref = 1.0 / (1.0 + (kummer - 1.0) * p_active)
            else:
                ref = math.exp(math.pi * MGF_LAMBDA * (1.0 - kummer))
            if not oracle.rel_close(value, ref, ANALYTIC_RTOL):
                bad.setdefault(i, []).append(
                    f"{family}: {kind}_exact {value!r} vs mpmath {ref!r} at beta={beta} arg={arg} (rtol {ANALYTIC_RTOL:g})")
        self.mp_pending = []
        return bad


def _db_grid(spec: dict) -> np.ndarray:
    start, intervals = spec["db"]
    return start + (30.0 - start) / intervals * np.arange(intervals + 1)


def _check_gamma(gamma: np.ndarray, gamma_db: np.ndarray, want_db: np.ndarray) -> None:
    _abs_near(gamma_db, want_db, GRID_ATOL, "gamma_db")
    _near(gamma, 10.0 ** (want_db / 10.0), 1e-12, "gamma")


def _sample(rng: np.random.Generator, values, beta, args, kind: str, p_active, sample: list) -> None:
    """Queue MPMATH_SAMPLE seeded cells for the mpmath check in finish()."""
    p_active = np.broadcast_to(p_active, beta.shape)
    for k in rng.choice(beta.size, min(MPMATH_SAMPLE, beta.size), replace=False):
        sample.append((float(values[k]), kind, float(beta[k]), float(args[k]), float(p_active[k])))


def _check_pcov(cols: dict, p_active, rng: np.random.Generator, sample: list) -> None:
    beta, gamma = cols["beta"], cols["gamma"]
    exact = cols["pcov_exact"]
    _near(exact, _per_beta(oracle.pcov_exact, beta, gamma, p_active), ANALYTIC_RTOL, "pcov_exact")
    _near(cols["pcov_approx"], _per_beta(oracle.pcov_approx, beta, gamma, p_active), ANALYTIC_RTOL, "pcov_approx")
    _sample(rng, exact, beta, gamma, "pcov", p_active, sample)


def _check_coverage(spec: dict, text: str, rng: np.random.Generator, sample: list) -> None:
    cols = _columns(text, ["beta", "gamma", "gamma_db", "pcov_exact", "pcov_approx"])
    db = _db_grid(spec)
    _expect(np.array_equal(cols["beta"], np.repeat(spec["betas"], db.size)), "beta column")
    _check_gamma(cols["gamma"], cols["gamma_db"], np.tile(db, len(spec["betas"])))
    _check_pcov(cols, 1.0, rng, sample)


def _exact_rate(beta: float, p_active) -> np.ndarray:
    return oracle.rate(beta, p_active, True)


def _approx_rate(beta: float, p_active) -> np.ndarray:
    return oracle.rate(beta, p_active, False)


def _check_rate(spec: dict, text: str, rng: np.random.Generator, sample: list) -> None:
    cols = _columns(text, ["beta", "rate_exact_quad", "rate_closed", "closed_method"])
    beta = cols["beta"]
    _expect(np.array_equal(beta, spec["betas"]), "beta column")
    ones = np.ones(beta.shape)
    _abs_near(cols["rate_exact_quad"], _per_beta(_exact_rate, beta, ones), RATE_ATOL, "rate_exact_quad")
    _abs_near(cols["rate_closed"], _per_beta(_approx_rate, beta, ones), RATE_ATOL, "rate_closed")


def _load_columns(cols: dict, spec: dict, repeat: int = 1) -> np.ndarray:
    """Check the (beta, ratio) and p_active columns; return the oracle's p_active."""
    cells = [(b, r) for b in spec["betas"] for r in spec["ratios"] for _ in range(repeat)]
    _expect(np.array_equal(np.column_stack([cols["beta"], cols["ratio"]]), np.array(cells).reshape(-1, 2)),
            "(beta, ratio) columns")
    ref_pa, _ = oracle.load_model(cols["ratio"])
    _near(cols["p_active"], ref_pa, 1e-12, "p_active")
    return ref_pa


def _check_ratio(spec: dict, text: str, actual: bool) -> None:
    kind = "actual" if actual else "peak"
    cols = _columns(text, ["beta", "ratio", "p_active", "p_selection",
                           f"rate_{kind}_exact", f"rate_{kind}_closed", "closed_method"])
    ref_pa = _load_columns(cols, spec)
    ref_psel = oracle.load_model(cols["ratio"])[1]
    _near(cols["p_selection"], ref_psel, 1e-12, "p_selection")
    share = ref_psel if actual else 1.0
    beta = cols["beta"]
    _abs_near(cols[f"rate_{kind}_exact"], _per_beta(_exact_rate, beta, ref_pa) * share, RATE_ATOL, f"{kind} exact")
    _abs_near(cols[f"rate_{kind}_closed"], _per_beta(_approx_rate, beta, ref_pa) * share, RATE_ATOL, f"{kind} closed")


def _check_partial(spec: dict, text: str, rng: np.random.Generator, sample: list) -> None:
    cols = _columns(text, ["beta", "ratio", "p_active", "gamma", "gamma_db", "pcov_exact", "pcov_approx"])
    db = _db_grid(spec)
    ref_pa = _load_columns(cols, spec, repeat=db.size)
    _check_gamma(cols["gamma"], cols["gamma_db"], np.tile(db, len(spec["betas"]) * len(spec["ratios"])))
    _check_pcov(cols, ref_pa, rng, sample)


def _check_mgf(spec: dict, text: str, rng: np.random.Generator, sample: list) -> None:
    cols = _columns(text, ["beta", "c_exact", "c_fit", "x", "mgf_exact", "mgf_approx", "rel_error"])
    beta, x, exact, approx = cols["beta"], cols["x"], cols["mgf_exact"], cols["mgf_approx"]
    cells = [(b, v) for b in spec["betas"] for v in spec["xs"]]
    _expect(np.array_equal(np.column_stack([beta, x]), np.array(cells)), "(beta, x) columns")
    _abs_near(cols["c_exact"], _per_beta(lambda b: oracle.branch_point(b), beta), GRID_ATOL, "c_exact")
    _near(exact, _per_beta(oracle.mgf_exact, beta, x, MGF_LAMBDA), ANALYTIC_RTOL, "mgf_exact")
    _near(approx, _per_beta(oracle.mgf_approx, beta, x, MGF_LAMBDA), ANALYTIC_RTOL, "mgf_approx")
    _abs_near(cols["rel_error"], np.abs(approx - exact) / exact, 1e-12, "rel_error")
    _sample(rng, exact, beta, x, "mgf", 1.0, sample)


_CHECKS = {
    "coverage": _check_coverage,
    "rate": _check_rate,
    "peak": lambda spec, text, rng, sample: _check_ratio(spec, text, actual=False),
    "actual": lambda spec, text, rng, sample: _check_ratio(spec, text, actual=True),
    "partial": _check_partial,
    "mgf": _check_mgf,
}


@dataclass
class SimCase:
    """One `ppcell simulate` configuration of a Monte Carlo op."""

    label: str
    beta: float
    n_bs: int
    n_real: int
    lambda_bs: float
    ratio: float | None = None

    @property
    def idle(self) -> bool:
        return self.ratio is not None

    @property
    def lambda_ue(self) -> float:
        return 0.0 if self.ratio is None else self.ratio * self.lambda_bs


class MonteCarlo:
    """`ppcell simulate` rounds; each op draws fresh simulation seeds.

    mc-full: one call per beta in {3, 4, 5}, fully loaded.
    mc-idle: one idle-mode call per paper ratio at beta 4.
    The z test pools the first ops, up to a fixed number of realizations
    per case.
    Both run with --jobs 1: with two workers on two vCPUs, contention from
    the shared host made mc-idle's wall times unsteady from run to run.
    """

    def __init__(self, name: str, seed: int, work: Path) -> None:
        rng = np.random.default_rng(seed)
        self.name = name
        self.seed = seed
        # coverage and rate are density-free, so the density is drawn too
        lam = float(LAMBDA_REF * 10.0 ** rng.uniform(-1.0, 1.0))
        if name == "mc-full":
            self.sim_configs = tuple(SimCase(f"beta{b:g}", b, n, FULL_REALIZATIONS, lam) for b, n in FULL_LOAD)
            self.pooled_ops = -(-FULL_POOLED // FULL_REALIZATIONS)
        else:
            self.sim_configs = tuple(
                SimCase(f"ratio{r:g}", IDLE_BETA, IDLE_BS, IDLE_REALIZATIONS, lam, r) for r in PAPER_RATIOS
            )
            self.pooled_ops = -(-IDLE_POOLED // IDLE_REALIZATIONS)
        self.inis = {}
        for case in self.sim_configs:
            sim = {"n_bs_target": case.n_bs, "n_realizations": case.n_real}
            if case.idle:
                sim["idle_mode"] = "true"
            self.inis[case.label] = _ini(
                work / f"{case.label}.ini",
                {"network": {"beta": repr(case.beta), "lambda_bs": repr(lam), "lambda_ue": repr(case.lambda_ue)},
                 "sim": sim},
            )
        self.work = work
        self.sums = {case.label: np.zeros(5) for case in self.sim_configs}
        self.pooled: list[int] = []

    def sim_seed(self, i: int) -> int:
        return int(np.random.default_rng([self.seed, i]).integers(2**31 - 1))

    def op(self, i: int) -> list[Call]:
        seed = str(self.sim_seed(i))
        return [
            Call(["simulate", "--config", str(self.inis[c.label]), "--out", str(self.work / f"{c.label}.csv"),
                  "--seed", seed, "--jobs", "1"], self.work / f"{c.label}.csv", c.label, {"case": c})
            for c in self.sim_configs
        ]

    def check(self, i: int, calls: list[Call]) -> tuple[int, list[str]]:
        items = 0
        errors = []
        pool = len(self.pooled) < self.pooled_ops
        for c in calls:
            try:
                items += self._check_samples(c.spec["case"], c.out, pool)
            except Mismatch as exc:
                errors.append(f"{c.family}: {exc}")
        if pool:
            self.pooled.append(i)
        return items, errors

    def _check_samples(self, case: SimCase, path: Path, pool: bool) -> int:
        with path.open() as fh:
            _expect(next(csv.reader(fh), None) == MC_HEADER, "header")
            try:
                data = np.loadtxt(fh, delimiter=",", ndmin=2)
            except ValueError as exc:
                raise Mismatch(f"unparsable cell: {exc}")
        _expect(data.shape == (case.n_real, 4), f"shape {data.shape}")
        rid, sir, users, active = data.T
        _expect(np.array_equal(rid, np.arange(case.n_real)), "realization ids")
        _expect(bool(np.all(sir > 0.0)) and not np.any(np.isnan(sir)), "SIR not positive")
        _expect(case.idle or bool(np.all(np.isfinite(sir))), "infinite SIR at full load")
        _expect(bool(np.all(users >= 1) and np.all(users == np.round(users))), "n_users")
        _expect(case.idle or bool(np.all(users == 1)), "n_users at full load")
        if case.idle:
            _expect(bool(np.all((active >= 1) & (active <= case.n_bs))), "n_active_bs")
        else:
            _expect(bool(np.all(active == case.n_bs)), "n_active_bs at full load")
        if pool:
            finite = np.isfinite(sir)
            peak = np.log1p(sir[finite])
            actual = peak / users[finite]
            self.sums[case.label] += [peak.size, peak.sum(), (peak**2).sum(), actual.sum(), (actual**2).sum()]
        return case.n_real

    def finish(self) -> dict[int, list[str]]:
        """Pooled z test of Monte Carlo peak and actual rate against quadrature.

        If it fails, every pooled op counts as failed.
        """
        gate = oracle.z_gate(2 * len(self.sim_configs), MC_FALSE_ALARM)
        bad = []
        self.z_scores = {}
        for case in self.sim_configs:
            n, s_peak, q_peak, s_act, q_act = self.sums[case.label]
            if n < 2:
                continue
            p_active, p_sel = map(float, oracle.load_model(case.ratio)) if case.idle else (1.0, 1.0)
            ref = float(oracle.rate(case.beta, p_active, True)[0])
            for what, s, q, want in (("peak", s_peak, q_peak, ref), ("actual", s_act, q_act, ref * p_sel)):
                mean = s / n
                stderr = math.sqrt(max(q / n - mean * mean, 0.0) / (n - 1))
                z = (mean - want) / stderr if stderr > 0 else math.inf
                self.z_scores[f"{case.label}.{what}"] = z
                if abs(z) > gate:
                    bad.append(f"{case.label} {what} rate {mean:.4f}+-{stderr:.4f} vs quadrature {want:.4f}: "
                               f"|z|={abs(z):.2f} > {gate:.2f} over {int(n)} realizations")
        return {i: bad for i in self.pooled} if bad else {}


def make(name: str, seed: int, work: Path):
    if name == "curves":
        return Curves(seed, work)
    if name in ("mc-full", "mc-idle"):
        return MonteCarlo(name, seed, work)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("curves", "mc-full", "mc-idle")
