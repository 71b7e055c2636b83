"""Record one point of the perf trajectory: perfbench on a parent and on a change.

    python3 bench/record.py --base HEAD~1 --seeds 6001-6010 --out BENCH_6.json

The change is the committed tree at HEAD, the parent the commit named by
--base. Each is exported with `git archive` (src/ and perfbench/ only) into
its own temporary directory, so both run identical benchmark code from the
same kind of checkout. For every workload and seed the two sides run
`perfbench/run.py --trace 0` back to back, alternating which goes first;
then each side runs `--trace 1` passes per workload on the first three
seeds, alternating in the same way. Every run lasts BENCHMARK.json's
run_seconds. Runs are sequential, one interpreter at a time. Last, each
side's whole tree (`git archive` of everything) runs the tier-1 test
command, TIER1, once, parent first.

The output JSON holds every run's end-to-end metrics, the median and
quartiles per side, the pairs the change won and the parent's quartile
spread (the gain rule of the benchmark's method), each per-layer metric's
traced runs with their median and range per side, the environment and code
size lines perfbench prints, and the known limits of the harness, so a
reader can tell a gain from a move within noise. Each side's tier-1 run
is recorded as its wall time, its pass and fail counts and its ten slowest
tests; it is reported, not claimed: one run per side cannot tell a change
from host drift.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("curves", "mc-full", "mc-idle")
# traced passes per side and workload, on the first seeds of the run
TRACED_SEEDS = 3
# the tier-1 test command, run from a tree's root with src on PYTHONPATH
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", "--durations=10")

# what earlier runs of identical trees showed the harness cannot resolve
HARNESS_LIMITS = [
    "curves: two identical trees differ by up to about 6% in items_per_s and 15% in op_tail_ms "
    "over 10 alternating pairs; smaller moves there are not told apart from host drift. Within one "
    "recorder run the parent's curves items_per_s spread is narrower: IQR 1.32% (BENCH_19.json), "
    "0.64% (BENCH_20.json), 2.20% (BENCH_21.json), 3.5% (BENCH_22.json), 4.4% (BENCH_23.json) and "
    "1.3% (BENCH_24.json), run range 4.7%, 3.7% and 8.2% in the first three; curves setup_s IQR 3.7%, "
    "7.3% and 3.2% (BENCH_22 to BENCH_24); mc-full items_per_s IQR 1.86%, 1.57%, 1.09%, 1.3%, 1.7% and "
    "2.3%; mc-idle IQR 10.8%, 9.7%, 8.2%, 11.3%, 7.7% and 3.5% (BENCH_19 to BENCH_24)",
    "peak_rss_mb includes the harness's own per-op records, about 2.5 KB per op, so a faster "
    "program that runs more ops in the fixed run time reads a higher peak_rss_mb "
    "(about +0.5 MB for a 2x faster curves, against a 0.02 relative bound)",
    "a recorder run of one commit against itself (BENCH_8_aa.json, seeds 8101-8110) read items_per_s "
    "-0.8% (mc-full) to -2.9% (curves) and curves op_p50_ms +3.0% on the change side, with no win count "
    "above 7/10; moves of that size are harness bias, not the change",
    "mc-idle: with the code an idle simulate runs unchanged between the sides, BENCH_7.json read "
    "items_per_s -4.4% (2/10 wins), op_p50_ms +3.6% and cpu_ms_per_item +5.0% on the change side, and "
    "BENCH_6.json and its rerun -5.9% and -3.2%; a move of about 6% on mc-idle is not a change's effect",
    "single traced passes of one tree moved simulator.block_self_ms_per_op by 30% either way and read "
    "cli.self_ms_per_op as low as -8.4 ms; the per-layer numbers are the median of three traced passes "
    "per side with their range, and a move inside either side's range is not a change's effect",
    "setup_s times a fresh `import ppcell.cli` plus solve_c at beta 3, 4 and 5, the same code on every "
    "workload; since scipy.special loads on first use, curves commands load it at their first bracket and "
    "idle simulate through scipy.spatial, so a setup_s drop from a module those commands load anyway is "
    "not a per-call gain. A drop from ppcell modules an analytic call never loads (ppcell.simulator, "
    "ppcell.validation) is one on curves; it is not one on mc-*, whose first simulate imports the "
    "simulator inside an untimed warm-up op. bench/startup.py times whole fresh-process commands",
    "an exported tree has no __pycache__, and under PYTHONDONTWRITEBYTECODE=1 none is written, so every "
    "fresh process compiles the src/ppcell modules it imports inside setup_s: compile() of all six took "
    "about 30 to 38 ms on the 2-vCPU recording host, of simulator and validation about 12 ms",
]


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def export(ref: str, dest: Path, paths: tuple[str, ...] = ("src", "perfbench")) -> str:
    """Write ref's paths (all of the tree when empty) under dest; returns the full SHA."""
    sha = git("rev-parse", "--verify", f"{ref}^{{commit}}")
    tar = subprocess.run(
        ["git", "archive", "--format=tar", sha, *paths], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return sha


def parse_seeds(text: str) -> list[int]:
    """'6001-6010' or '6001,6003,6007'."""
    if "-" in text:
        lo, hi = (int(t) for t in text.split("-", 1))
        return list(range(lo, hi + 1))
    return [int(t) for t in text.split(",")]


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run; its final JSON line plus the env and code lines."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} printed nothing (exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    result["env"] = [ln for ln in lines if ln.startswith("env ")]
    result["code"] = next((ln for ln in lines if ln.startswith("code ")), None)
    return result


def run_tier1(tree: Path) -> dict:
    """One tier-1 run in tree: wall time, pytest's counts and its ten slowest tests."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.splitlines()
    summary = next((ln.strip("= ") for ln in reversed(lines) if re.search(r" in [\d.]+s", ln)), "")
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (\w+)", summary.split(" in ")[0])}
    pytest_s = re.search(r" in ([\d.]+)s", summary)
    slowest = [ln.strip() for ln in lines if re.match(r"[\d.]+s (call|setup|teardown) ", ln)]
    return {
        "exit_code": proc.returncode,
        "wall_s": wall,
        "pytest_s": float(pytest_s[1]) if pytest_s else None,
        "counts": counts,
        "summary": summary,
        "slowest": slowest[:10],
    }


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def compare(parent: list[dict], change: list[dict], contract: list[dict]) -> dict:
    """Per metric: both sides' spread, pairs won, and the median move against its bound."""
    out = {}
    for m in contract:
        name, higher = m["name"], m["better"] == "higher"
        a = [r["metrics"][name]["value"] for r in parent]
        b = [r["metrics"][name]["value"] for r in change]
        wins = sum((y > x) if higher else (y < x) for x, y in zip(a, b))
        sa, sb = summarize(a), summarize(b)
        rel = sb["median"] / sa["median"] - 1.0
        worse = -rel if higher else rel
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "bound": m["bound"],
            "parent": sa,
            "change": sb,
            "parent_runs": a,
            "change_runs": b,
            "relative_change": rel,
            "change_wins": f"{wins}/{len(a)}",
            "median_gap_exceeds_parent_iqr": abs(sb["median"] - sa["median"]) > sa["q3"] - sa["q1"],
            "within_bound": worse <= m["bound"],
        }
    return out


def spread(values: list[float]) -> dict:
    """Median and range of a few traced passes."""
    return {"median": statistics.median(values), "min": min(values), "max": max(values), "runs": values}


def code_counts(line: str | None) -> dict:
    match = re.search(r"(\d+) lines, (\d+) public exports", line or "")
    return {"src_ppcell_lines": int(match[1]), "public_exports": int(match[2])} if match else {}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git ref of the parent commit")
    parser.add_argument("--seeds", required=True, help="seed range 'a-b' or list 'a,b,c'")
    parser.add_argument("--out", required=True, help="JSON file to write, e.g. BENCH_6.json")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    work = Path(tempfile.mkdtemp(prefix="ppcell-record-"))
    try:
        trees = {"parent": work / "parent", "change": work / "change"}
        shas = {"parent": export(args.base, trees["parent"]), "change": export("HEAD", trees["change"])}
        runs: dict[str, dict[str, list[dict]]] = {side: {w: [] for w in WORKLOADS} for side in trees}
        for workload in WORKLOADS:
            for k, seed in enumerate(seeds):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                for side in order:
                    r = run_bench(trees[side], workload, seed, seconds, 0)
                    r["seed"] = seed
                    runs[side][workload].append(r)
                    print(f"{workload} seed {seed} {side}: exit {r['exit_code']}, "
                          f"failed {r['failed']}/{r['attempted']}", file=sys.stderr, flush=True)
        traced: dict[str, dict[str, list[dict]]] = {side: {w: [] for w in WORKLOADS} for side in trees}
        for workload in WORKLOADS:
            for k, seed in enumerate(seeds[:TRACED_SEEDS]):
                for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                    traced[side][workload].append(run_bench(trees[side], workload, seed, seconds, 1))
        tier1 = {}
        for side, ref in (("parent", args.base), ("change", "HEAD")):
            export(ref, work / f"tier1-{side}", ())
            tier1[side] = run_tier1(work / f"tier1-{side}")
            print(f"tier-1 {side}: {tier1[side]['summary']}", file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    first = {side: runs[side][WORKLOADS[0]][0] for side in trees}
    record = {
        "command": f"python3 perfbench/run.py --workload W --seed N --seconds {seconds:g} --trace 0",
        "seeds": seeds,
        "pairs": "alternating: the parent runs first on even seed positions, the change on odd ones",
        "sha": shas,
        "env": first["change"]["env"][0],
        "code": {side: code_counts(first[side]["code"]) for side in trees},
        "harness_limits": HARNESS_LIMITS,
        "workloads": {
            w: {
                "ops_failed": {side: sum(r["failed"] for r in runs[side][w]) for side in trees},
                "ops_attempted": {side: sum(r["attempted"] for r in runs[side][w]) for side in trees},
                "metrics": compare(runs["parent"][w], runs["change"][w], bench["end_to_end"]),
            }
            for w in WORKLOADS
        },
        "traced_seeds": seeds[:TRACED_SEEDS],
        "traced": {
            side: {
                w: {name: spread([r["metrics"][name]["value"] for r in rs]) for name in rs[0]["metrics"]}
                for w, rs in traced[side].items()
            }
            for side in trees
        },
        "tier1": {"command": f"PYTHONPATH=src python {' '.join(TIER1)}", "claimed": False, **tier1},
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    bad = [(side, w) for side in trees for w in WORKLOADS
           if any(r["exit_code"] for r in runs[side][w] + traced[side][w])]
    if bad:
        print(f"runs with a nonzero exit: {bad}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
