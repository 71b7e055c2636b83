"""ppcell benchmark: run one workload for one seed and print its metrics.

    python3 perfbench/run.py --workload curves --seed 1 --seconds 20 --trace 0

Run from the root of a ppcell source tree; the program is imported from its
`src/`. --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
ones. The last line of stdout is one JSON object; the lines before it give
each metric with its unit, the times also as measured, the environment and
the code size. End-to-end times are scaled to a reference host speed (see
calibrate() and measure_setup()). The exit code is 0 only when every op ran
and passed its correctness check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# fresh-process set-up timings per run; the median is reported
SETUP_REPEATS = 5
# calibrate() duration at the reference speed that reported times assume
REFERENCE_CALIBRATION_S = 0.001
# what a fresh interpreter importing ppcell's dependencies takes at the
# reference speed
DEPENDENCY_IMPORTS = "import numpy, scipy.integrate, scipy.optimize, scipy.spatial"
REFERENCE_IMPORT_S = 0.7
# a tail percentile is reported only with at least this many samples beyond it
TAIL_SAMPLES = 10
# untimed ops before the timed ones, and ops the traced run traces
WARMUP_OPS = 2
TRACED_OPS = 4

# what a CLI user pays on every invocation: the import plus the lazy caches
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import ppcell.cli
mgf, analytics = sys.modules.get("ppcell.mgf"), sys.modules.get("ppcell.analytics")
for beta in (3.0, 4.0, 5.0):
    getattr(mgf, "solve_c", lambda b: None)(beta)
for beta in (3.0, 4.0):
    getattr(analytics, "table1_audit", lambda b: None)(beta)
"""


def calibrate() -> float:
    """Time a fixed mix of interpreted and numpy work that does not touch ppcell.

    On a shared 2-vCPU virtual machine the host's speed drifts by up to 1.7x
    over seconds to minutes, and it slows this and the workload alike. Scaling each op by the calibration
    time around it makes runs at different times comparable. The first pass
    only warms the caches the op before it evicted.
    """
    for _ in range(2):
        t0 = time.perf_counter()
        total = 0.0
        for i in range(10000):
            total += (i * 0.5) ** 0.5
        a = np.arange(2000.0)
        for _ in range(10):
            a = np.sqrt(a * a + total)
    return time.perf_counter() - t0


def fresh_process(*args: str) -> float:
    """Wall time of a fresh interpreter running `python -c <args>`."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", *args], cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def measure_setup() -> tuple[float, float]:
    """Median set-up time at the reference speed, and as measured.

    Each set-up sits between two fresh interpreters that only import
    ppcell's third-party dependencies; their time tracks the host's speed
    for this kind of work far better than calibrate() does.
    """
    raw, scaled = [], []
    ref = fresh_process(DEPENDENCY_IMPORTS)
    for _ in range(SETUP_REPEATS):
        t = fresh_process(SETUP_CODE, str(SRC))
        ref_after = fresh_process(DEPENDENCY_IMPORTS)
        raw.append(t)
        scaled.append(t * REFERENCE_IMPORT_S * 2.0 / (ref + ref_after))
        ref = ref_after
    return statistics.median(scaled), statistics.median(raw)


class Ledger:
    """Ops attempted and the errors of each failed op."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors: dict[int, list[str]] = {}

    def fail(self, i: int, messages: list[str]) -> None:
        if messages:
            self.errors.setdefault(i, []).extend(messages)

    def error_rate(self) -> str:
        failed = len(self.errors)
        return f"error_rate = {failed / self.attempted:.6g} ratio ({failed}/{self.attempted} ops)"

    def summary(self) -> dict:
        return {"correct": not self.errors, "attempted": self.attempted, "failed": len(self.errors)}


def run_op(cli, wl, i: int, ledger: Ledger) -> tuple[float, list]:
    """Run op i closed-loop; returns its wall time and its calls."""
    calls = wl.op(i)
    ledger.attempted += 1
    errors = []
    t0 = time.perf_counter()
    for c in calls:
        try:
            rc = cli.main(c.argv)
        except Exception as exc:  # the op fails; the run goes on and reports it
            errors.append(f"{c.argv[0]} raised {type(exc).__name__}: {exc}")
            continue
        if rc != 0:
            errors.append(f"{c.argv[0]} exited {rc}")
    dt = time.perf_counter() - t0
    ledger.fail(i, errors)
    return dt, calls


def outputs(calls) -> list[bytes]:
    return [c.out.read_bytes() if c.out.exists() else b"" for c in calls]


def check_op(wl, i: int, calls, ledger: Ledger) -> int:
    if i in ledger.errors:
        return 0
    try:
        items, errors = wl.check(i, calls)
    except OSError as exc:
        items, errors = 0, [f"output unreadable: {exc}"]
    ledger.fail(i, errors)
    return items


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_SAMPLES samples beyond it, and that percentile."""
    ordered = sorted(times)
    k = max(len(ordered) - TAIL_SAMPLES - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def cpu_seconds() -> float:
    return sum(
        r.ru_utime + r.ru_stime
        for r in (resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN))
    )


def rss_mb() -> float:
    """Resident set size of this process now."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20


def run_e2e(cli, wl, seconds: float, ledger: Ledger) -> tuple[dict, list[str]]:
    setup_s, setup_raw = measure_setup()
    # ppcell and the libraries it loads are imported by now; the oracle's
    # mpmath and scipy.stats wait for wl.finish()
    import_rss_mb = rss_mb()
    for i in range(WARMUP_OPS):  # checked but not timed
        _, calls = run_op(cli, wl, i, ledger)
        check_op(wl, i, calls, ledger)
    times, cpus, cal, items = [], [], [calibrate()], 0
    i = WARMUP_OPS
    while sum(times) < seconds:
        cpu0 = cpu_seconds()
        dt, calls = run_op(cli, wl, i, ledger)
        cpus.append(cpu_seconds() - cpu0)
        times.append(dt)
        cal.append(calibrate())
        items += check_op(wl, i, calls, ledger)
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for j, messages in wl.finish().items():
        ledger.fail(j, messages)

    # op i ran between calibrations i and i + 1; take three on each side
    speed = [REFERENCE_CALIBRATION_S / statistics.median(cal[max(i - 2, 0): i + 4]) for i in range(len(times))]
    ref_times = [t * f for t, f in zip(times, speed)]
    tail_ms, tail_pct = tail(ref_times)
    metrics = {
        "items_per_s": (items / sum(ref_times), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(ref_times), "ms"),
        "op_tail_ms": (1e3 * tail_ms, "ms"),
        "cpu_ms_per_item": (1e3 * sum(c * f for c, f in zip(cpus, speed)) / max(items, 1), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = [
        f"ops timed = {len(times)}, items = {items}; op_tail_ms is p{tail_pct:.1f} of {len(times)} ops",
        ledger.error_rate(),
        f"machine speed: calibration median {1e3 * statistics.median(cal):.4f} ms, "
        f"reference {1e3 * REFERENCE_CALIBRATION_S:g} ms; times above are at the reference speed",
        f"as measured: items_per_s = {items / sum(times):.6g} 1/s, op_p50_ms = {1e3 * statistics.median(times):.6g} ms, "
        f"op_tail_ms = {1e3 * tail(times)[0]:.6g} ms, cpu_ms_per_item = {1e3 * sum(cpus) / max(items, 1):.6g} ms, "
        f"setup_s = {setup_raw:.6g} s",
        f"peak_rss_mb = {import_rss_mb:.2f} MB after imports + {peak_rss_mb - import_rss_mb:.2f} MB of ops",
    ]
    if getattr(wl, "z_scores", None):
        notes.append(f"mc z over the first {len(wl.pooled)} ops = "
                     + ", ".join(f"{k} {v:+.2f}" for k, v in wl.z_scores.items()))
    return metrics, notes


def run_traced(cli, wl, seconds: float, ledger: Ledger, out_dir: Path) -> tuple[dict, list[str]]:
    """Untraced passes, then one traced pass and a replay over the same TRACED_OPS ops.

    Ops run with --jobs 1, so no span is hidden inside a pool worker.
    """
    ops = range(TRACED_OPS)
    untraced: dict[int, list[float]] = {i: [] for i in ops}
    written: dict[int, list[bytes]] = {}
    rows, cal = 0, [calibrate()]
    for i in ops:
        dt, calls = run_op(cli, wl, i, ledger)
        untraced[i].append(dt)
        cal.append(calibrate())
        written[i] = outputs(calls)
        rows += check_op(wl, i, calls, ledger)
    # more untraced passes for a steady baseline, within a third of the run
    while sum(map(sum, untraced.values())) < seconds / 3:
        for i in ops:
            untraced[i].append(run_op(cli, wl, i, ledger)[0])
            cal.append(calibrate())
    untraced_s = sum(statistics.median(v) for v in untraced.values())
    # busy times are reported at the reference host speed, as in run_e2e
    untraced_ref_s = untraced_s * REFERENCE_CALIBRATION_S / statistics.median(cal)

    tracer = tracing.Tracer()
    traced = 0.0
    cal = [calibrate() for _ in range(3)]
    tracer.install()
    try:
        for i in ops:
            dt, calls = run_op(cli, wl, i, ledger)
            traced += dt
            if outputs(calls) != written[i]:
                ledger.fail(i, ["traced run wrote different CSV bytes than the untraced run"])
    finally:
        tracer.uninstall()
    cal += [calibrate() for _ in range(3)]
    block_ms = 1e3 * sum(s for s, _ in tracer.self_durations("simulator", "run_simulation"))
    block_ms *= REFERENCE_CALIBRATION_S / statistics.median(cal)
    for j, messages in wl.finish().items():
        ledger.fail(j, messages)
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{wl.name}.csv")

    k = len(ops)
    # the replay gives each layer's share of the busy time; the untraced
    # passes, which ran at a measured host speed, give the total
    self_ms = tracer.replay_self_ms()
    total_ms = sum(self_ms.values())
    self_ms = {key: 1e3 * untraced_ref_s * ms / total_ms for key, ms in self_ms.items()} if total_ms > 0 else {}
    probe, notes = {}, []
    if wl.sim_configs:
        mask = tracer.self_durations("simulator", "apply_idle_mode")
        mask_us = {}
        for case in wl.sim_configs:
            own = [s for s, args in mask if getattr(args[0] if args else None, "lambda_ue", None) == case.lambda_ue]
            mask_us[case.label] = 1e6 * statistics.fmean(own) if own else 0.0
        cal = [calibrate() for _ in range(3)]
        probe, notes = tracing.probe_simulator(wl, [wl.sim_seed(i) for i in ops], mask_us)
        cal += [calibrate() for _ in range(3)]
        probe = {key: us * REFERENCE_CALIBRATION_S / statistics.median(cal) if key != "users" else us
                 for key, us in probe.items()}
    metrics = {
        "specfun.calls_per_op": tracer.calls("specfun") / k,
        "specfun.self_ms_per_op": self_ms.get("specfun", 0.0) / k,
        "mgf.calls_per_op": tracer.calls("mgf") / k,
        "mgf.self_ms_per_op": self_ms.get("mgf", 0.0) / k,
        "analytics.rate_calls_per_op": tracer.rate_calls / k,
        "analytics.rate_self_ms_per_op": self_ms.get("analytics.rate", 0.0) / k,
        "analytics.evals_per_rate": tracer.evals / tracer.rate_calls if tracer.rate_calls else 0.0,
        "analytics.coverage_self_ms_per_op": self_ms.get("analytics.coverage", 0.0) / k,
        "analytics.fallback_ratio": tracer.closed_by_quadrature / tracer.closed if tracer.closed else 0.0,
        "simulator.rng_us": probe.get("rng", 0.0),
        "simulator.geometry_us": probe.get("geometry", 0.0),
        "simulator.sir_us": probe.get("sir", 0.0),
        "simulator.attach_us": probe.get("attach", 0.0),
        "simulator.users_per_realization": probe.get("users", 0.0),
        "simulator.block_self_ms_per_op": block_ms / k,
        "cli.self_ms_per_op": self_ms.get("cli", 0.0) / k,
        "cli.rows_per_op": rows / k,
        "trace.overhead_ratio": traced / untraced_s,
    }
    notes += [
        "busy times above are at the reference host speed; probe lines are as measured",
        f"traced ops = {k}, untraced passes = {min(map(len, untraced.values()))}, "
        f"untraced {1e3 * untraced_s / k:.2f} ms/op, traced {1e3 * traced / k:.2f} ms/op",
        f"closed-form requests = {tracer.closed}, answered by quadrature = {tracer.closed_by_quadrature}",
        f"spans = {len(tracer.spans)}, segments replayed = {len(tracer.segments)}, "
        f"written to {out_dir.name}/spans-{wl.name}.csv",
        ledger.error_rate(),
    ]
    if tracer.absent:
        notes.append(f"absent layers, reported as 0: {', '.join(tracer.absent)}")
    return {name: (metrics[name], unit) for name, unit in tracing.PER_LAYER}, notes


def environment(seed: int) -> list[str]:
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return [
        f"env python {platform.python_version()}, numpy {np.__version__}, scipy {scipy.__version__}, "
        f"nproc {os.cpu_count()}, cpu {cpu}",
        f"env git {git_sha()}, seed {seed}",
    ]


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return p.stdout.strip() if p.returncode == 0 else "unknown"


def code_size() -> str:
    """src/ppcell line count and public export count; information, not gated."""
    import ppcell

    lines = sum(len(p.read_text().splitlines()) for p in (SRC / "ppcell").glob("*.py"))
    exports = [n for n in dir(ppcell) if not n.startswith("_") and not isinstance(getattr(ppcell, n), type(ppcell))]
    return f"code src/ppcell {lines} lines, {len(exports)} public exports"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (SRC / "ppcell" / "cli.py").is_file():
        print(f"no ppcell source tree at {SRC}; run from the root of a ppcell checkout", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    os.environ["TMPDIR"] = str(work)
    try:
        ledger = Ledger()
        import ppcell.cli

        if not Path(ppcell.cli.__file__).resolve().is_relative_to(SRC):
            print(f"ppcell was imported from {ppcell.cli.__file__}, not {SRC}", file=sys.stderr)
            return 2
        wl = workloads.make(args.workload, args.seed, work)
        if args.trace:
            metrics, notes = run_traced(ppcell.cli, wl, args.seconds, ledger, ROOT / ".perfbench")
        else:
            metrics, notes = run_e2e(ppcell.cli, wl, args.seconds, ledger)
        notes += environment(args.seed) + [code_size()]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for line in notes:
        print(line)
    for i, messages in sorted(ledger.errors.items())[:5]:
        print(f"op {i} failed: {'; '.join(messages)[:500]}", file=sys.stderr)
    result = ledger.summary()
    result["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
