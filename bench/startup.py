"""Time fresh-process `ppcell` calls on a parent and a change, in alternation.

    python3 bench/startup.py --base HEAD~1 --runs 7

The change is the committed tree at HEAD, the parent the commit named by
--base; each is exported with `git archive` as bench/record.py does. Every
run is one fresh interpreter that imports ppcell.cli from its tree, calls
`main` on a command's argv and reports its peak RSS, so a run's wall time is
all of what a shell user waits for. For each command the two sides run back
to back, alternating which goes first, and the first run of each side keeps
its output file. Right before each side's run, a fresh interpreter that
only imports the command's third-party dependencies (its host reference)
runs too, so every run has a neighbouring measure of how fast the host is
just then.

Prints per command each side's median wall time and peak RSS, the change's
ratio to the parent, the pairs the change won, the median of each side's
per-run difference to its reference (the command's own cost beyond its
imports) and of its per-run ratio to it, the median over pairs of the
change's difference minus the parent's, whether the two sides wrote
byte-identical output, and which of the WATCHED modules each side's first
run had loaded when `main` returned. The raw medians drift with the host;
the differences and ratios are what tell two trees apart.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from record import export

# the third-party imports each kind of command needs, timed alone as its host reference
FULL_LOAD_DEPS = "import numpy"
IDLE_DEPS = "import numpy, scipy.spatial"
ANALYTIC_DEPS = "import numpy, scipy.special"

# (name, subcommand, config, reference): full-load simulate at the defaults
# (10,000 realizations of 500 stations), idle mode at the paper's ratio 4.34
# (user attachment loads scipy.spatial), and four analytic commands at their
# default grids (their first bracket loads scipy.special)
COMMANDS = (
    ("simulate-full", "simulate", "", FULL_LOAD_DEPS),
    ("simulate-idle", "simulate", "[network]\nlambda_ue = 5.5118e-6\n[sim]\nn_realizations = 200\nidle_mode = true\n",
     IDLE_DEPS),
    ("coverage", "coverage", "", ANALYTIC_DEPS),
    ("rate", "rate", "", ANALYTIC_DEPS),
    ("mgf", "mgf", "", ANALYTIC_DEPS),
    ("load-curves", "load-curves", "[experiment]\nkind = PeakRateVsRatio\n", ANALYTIC_DEPS),
)

# module -> its short name in the loads columns
WATCHED = {"ppcell.simulator": "sim", "ppcell.validation": "val", "numpy.random": "rand", "scipy.special": "spec"}

RUNNER = """
import json, resource, sys
sys.path.insert(0, sys.argv[1])
import ppcell.cli
if not ppcell.cli.__file__.startswith(sys.argv[1]):
    sys.exit(f"ppcell was imported from {ppcell.cli.__file__}, not {sys.argv[1]}")
code = ppcell.cli.main(sys.argv[3:])
loaded = [m for m in json.loads(sys.argv[2]) if m in sys.modules]
print(json.dumps([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, loaded]), file=sys.stderr)
sys.exit(code)
"""


def run_once(tree: Path, argv: list[str]) -> tuple[float, float, str]:
    """Wall time in s, peak RSS in MB and the loaded WATCHED modules of one fresh `ppcell` call."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", RUNNER, str(tree / "src"), json.dumps(list(WATCHED)), *argv],
                          capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode:
        raise RuntimeError(f"ppcell {' '.join(argv)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    rss_kb, loaded = json.loads(proc.stderr.splitlines()[-1])
    return wall, rss_kb / 1024.0, "+".join(WATCHED[m] for m in loaded) or "-"


def reference_once(imports: str) -> float:
    """Wall time in s of a fresh interpreter that runs only imports."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", imports], check=True)
    return time.perf_counter() - t0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git ref of the parent commit")
    parser.add_argument("--runs", type=int, default=7, help="runs per side and command")
    args = parser.parse_args(argv)

    work = Path(tempfile.mkdtemp(prefix="ppcell-startup-"))
    try:
        trees = {"parent": work / "parent", "change": work / "change"}
        export(args.base, trees["parent"])
        export("HEAD", trees["change"])
        print(f"{'command':<14} {'parent_ms':>10} {'change_ms':>10} {'ratio':>6} {'wins':>6} "
              f"{'parent_net_ms':>14} {'change_net_ms':>14} {'net_diff_ms':>12} {'parent_x_ref':>13} {'change_x_ref':>13} "
              f"{'parent_rss_mb':>14} {'change_rss_mb':>14}  same_output  parent_loads / change_loads")
        for name, command, config, imports in COMMANDS:
            outs = {side: work / f"{name}-{side}.csv" for side in trees}
            argvs = {side: [command, "--out", str(outs[side])] for side in trees}
            if config:
                (work / f"{name}.ini").write_text(config)
                for side in trees:
                    argvs[side] += ["--config", str(work / f"{name}.ini")]
            walls = {side: [] for side in trees}
            refs = {side: [] for side in trees}
            rss = {side: [] for side in trees}
            outputs, loads = {}, {}
            for k in range(args.runs):
                for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                    refs[side].append(reference_once(imports))
                    wall, mb, loaded = run_once(trees[side], argvs[side])
                    walls[side].append(wall)
                    rss[side].append(mb)
                    outputs.setdefault(side, outs[side].read_bytes())
                    loads.setdefault(side, loaded)
            wins = sum(c < p for p, c in zip(walls["parent"], walls["change"]))
            med = {side: statistics.median(walls[side]) * 1e3 for side in trees}
            nets = {side: [w - r for w, r in zip(walls[side], refs[side])] for side in trees}
            net = {side: statistics.median(nets[side]) * 1e3 for side in trees}
            net_diff = statistics.median(c - p for p, c in zip(nets["parent"], nets["change"])) * 1e3
            x_ref = {side: statistics.median(w / r for w, r in zip(walls[side], refs[side])) for side in trees}
            print(f"{name:<14} {med['parent']:>10.1f} {med['change']:>10.1f} {med['change'] / med['parent']:>6.3f} "
                  f"{wins:>3}/{args.runs:<2} {net['parent']:>14.1f} {net['change']:>14.1f} {net_diff:>12.1f} "
                  f"{x_ref['parent']:>13.3f} {x_ref['change']:>13.3f} {statistics.median(rss['parent']):>14.1f} "
                  f"{statistics.median(rss['change']):>14.1f}  "
                  f"{'yes' if outputs['parent'] == outputs['change'] else 'NO':<11}  "
                  f"{loads['parent']} / {loads['change']}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
