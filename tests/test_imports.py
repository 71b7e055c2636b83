"""Cold start: what `import ppcell.cli` and the commands after it load.

Each case runs in a fresh interpreter, because this one has long since
imported whatever the other tests needed. The import, solve_c at beta >= 2.22
and a full-load simulate load no scipy at all: scipy.special is imported at
the first analytic bracket, scipy.spatial at the first user attachment. The
analytic subcommands, noisy coverage included, load no scipy subpackage but
scipy.special; scipy.optimize, scipy.integrate and scipy.spatial cost every
CLI invocation several hundred ms to import, and no library module imports
scipy.integrate. Of ppcell itself, the import and the analytic subcommands
load mgf and analytics only: simulate loads the simulator (and with it
numpy.random), validate the validation suite.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import ppcell

SRC = Path(ppcell.__file__).resolve().parents[1]

HEAVY = ("scipy.optimize", "scipy.integrate", "scipy.spatial")
# the ppcell modules no analytic subcommand runs
UNUSED = ("ppcell.simulator", "ppcell.validation")

# tiny configs, one per analytic command (the three load-curves kinds apart)
ANALYTIC_RUNS = {
    "coverage": ("coverage", "[grid]\ngamma_start = -5\ngamma_stop = 5\ngamma_step = 5\nbetas = 3 4\n"),
    "noisy": (
        "coverage",
        "[network]\nsigma_n2 = 1e-9\n[grid]\ngamma_start = -5\ngamma_stop = 5\ngamma_step = 5\nbetas = 3 4\n",
    ),
    "rate": ("rate", "[grid]\nbetas = 2.75 4.0\n"),
    "mgf": ("mgf", "[grid]\nx_values = 0 0.5 2\nbetas = 3.5\n"),
    "peak": ("load-curves", "[experiment]\nkind = PeakRateVsRatio\n[grid]\nbetas = 3 4.5\nratios = 0.5 2\n"),
    "actual": ("load-curves", "[experiment]\nkind = ActualRateVsRatio\n[grid]\nbetas = 4\nratios = 0.5 2\n"),
    "partial": (
        "load-curves",
        "[experiment]\nkind = CoveragePartialLoad\n[grid]\ngamma_start = 0\ngamma_stop = 10\n"
        "gamma_step = 10\nratios = 1\n",
    ),
}

IDLE_SIMULATE = (
    "simulate",
    "[network]\nlambda_ue = 1.27e-6\n[sim]\nn_bs_target = 64\nn_realizations = 5\nidle_mode = true\n",
)
FULL_SIMULATE = ("simulate", "[sim]\nn_bs_target = 64\nn_realizations = 200\n")

CLI_SCRIPT = """
import json, sys
heavy = tuple(json.loads(sys.argv[1]))
def loaded():
    return sorted(m for m in sys.modules if m.startswith(heavy))
import ppcell.cli
seen = {"import": loaded()}
from ppcell.mgf import solve_c
for beta in (3.0, 4.0, 5.0):
    solve_c(beta)
seen["solve_c"] = loaded()
codes = {}
for name, argv in json.loads(sys.argv[2]).items():
    codes[name] = ppcell.cli.main(argv)
    seen[name] = loaded()
print(json.dumps({"codes": codes, "loaded": seen}))
"""

POOL_SCRIPT = """
import concurrent.futures, json, os, sys
import numpy as np
from ppcell.mgf import NetworkParams
from ppcell.simulator import SimConfig, run_simulation

at_pool_start = []

class Spy(concurrent.futures.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        at_pool_start.append("scipy.spatial" in sys.modules)
        super().__init__(*args, **kwargs)

concurrent.futures.ProcessPoolExecutor = Spy
os.cpu_count = lambda: 2  # the worker count is capped at the CPU count
before = "scipy.spatial" in sys.modules
p = NetworkParams(lambda_bs=1.0, beta=4.0, lambda_ue=1.0)
cfg = SimConfig(n_bs_target=64, n_realizations=40, seed=0)
pooled = run_simulation(p, cfg, idle_mode=True, jobs=2)
serial = run_simulation(p, cfg, idle_mode=True, jobs=1)
same = all(
    np.array_equal(getattr(pooled, f), getattr(serial, f))
    for f in ("sir_values", "n_users_in_cell", "n_active_bs")
)
print(json.dumps({"before": before, "at_pool_start": at_pool_start, "same": same}))
"""


EXPORTS_SCRIPT = """
import json, sys
import ppcell
before = "ppcell.simulator" in sys.modules
missing = [name for name in ppcell.__all__ if getattr(ppcell, name, None) is None or name not in dir(ppcell)]
import ppcell.mgf, ppcell.simulator
retired = [f"{m.__name__}.{name}" for m in (ppcell, ppcell.simulator)
           for name in ("Deployment", "sample_deployment", "apply_idle_mode", "sample_sir") if hasattr(m, name)]
print(json.dumps({"before": before, "names": len(ppcell.__all__), "missing": missing, "retired": retired,
                  "same_sim_config": ppcell.simulator.SimConfig is ppcell.mgf.SimConfig}))
"""


def run_fresh(script: str, *args: str) -> dict:
    """Run script in a fresh interpreter on this ppcell; returns its last stdout line as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_cli(tmp_path, runs: dict, watched: tuple[str, ...] = HEAVY) -> dict:
    """`main` for each (command, config) in turn, in a fresh interpreter.

    Returns the exit codes and, under "loaded", the watched modules loaded
    after the import, after solve_c at beta 3, 4 and 5, and after each run.
    """
    argvs = {}
    for name, (command, text) in runs.items():
        (tmp_path / f"{name}.ini").write_text(text)
        argvs[name] = [command, "--config", str(tmp_path / f"{name}.ini"), "--out", str(tmp_path / f"{name}.csv")]
    return run_fresh(CLI_SCRIPT, json.dumps(watched), json.dumps(argvs))


def test_analytic_commands_load_no_heavy_scipy(tmp_path):
    # nor the simulator or the suite; of the watched modules only numpy.random arrives,
    # with scipy.special at the first bracket, which shows the watch is not vacuous
    seen = run_cli(tmp_path, ANALYTIC_RUNS, watched=(*HEAVY, *UNUSED, "numpy.random"))
    assert seen["codes"] == {name: 0 for name in ANALYTIC_RUNS}
    for name in ANALYTIC_RUNS:
        assert (tmp_path / f"{name}.csv").read_text().count("\n") >= 2, name
    assert seen["loaded"]["import"] == seen["loaded"]["solve_c"] == []
    assert all(m.startswith("numpy.random") for mods in seen["loaded"].values() for m in mods)
    assert "numpy.random" in seen["loaded"]["coverage"]


def test_every_export_resolves_on_a_lazy_import():
    # the simulator's exports are served on first access; the package lists all 18, and the
    # retired per-realization names resolve on neither module
    seen = run_fresh(EXPORTS_SCRIPT)
    assert seen == {"before": False, "names": 18, "missing": [], "retired": [], "same_sim_config": True}


def test_idle_simulate_loads_the_kd_tree(tmp_path):
    # the guard above is not vacuous: attachment does pull scipy.spatial in
    seen = run_cli(tmp_path, {"idle": IDLE_SIMULATE})
    assert seen["codes"] == {"idle": 0}
    assert seen["loaded"]["solve_c"] == []
    assert "scipy.spatial" in seen["loaded"]["idle"]


def test_full_load_simulate_loads_no_scipy(tmp_path):
    # the import, solve_c and a full-load run need only math and numpy, and the run
    # loads the simulator but not the suite; the coverage run after them shows the
    # guard is not vacuous
    seen = run_cli(tmp_path, {"full": FULL_SIMULATE, "coverage": ANALYTIC_RUNS["coverage"]},
                   watched=("scipy", *UNUSED))
    assert seen["codes"] == {"full": 0, "coverage": 0}
    assert (tmp_path / "full.csv").read_text().count("\n") == 201
    assert seen["loaded"]["import"] == seen["loaded"]["solve_c"] == []
    assert seen["loaded"]["full"] == ["ppcell.simulator"]
    assert "scipy.special" in seen["loaded"]["coverage"]
    assert "ppcell.validation" not in seen["loaded"]["coverage"]


def test_pool_after_lazy_kd_tree_import():
    # scipy.spatial is not loaded yet: jobs=2 must import it in the parent
    # before the pool forks, and its samples must still match jobs=1 bitwise
    seen = run_fresh(POOL_SCRIPT)
    assert seen == {"before": False, "at_pool_start": [True], "same": True}


def test_library_never_imports_scipy_integrate():
    # the analytic routes are fixed Gauss-Legendre rules; quad stays in the tests
    found = []
    for path in sorted((SRC / "ppcell").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names if name.startswith("scipy.integrate")]
    assert found == []
