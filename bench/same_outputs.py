"""Check that a change leaves every `ppcell` output byte-identical to its parent's.

    python3 bench/same_outputs.py --base HEAD~1

The change is the committed tree at HEAD, the parent the commit named by
--base; each is exported with `git archive` as bench/record.py does. Every
case of a fixed matrix runs as one fresh interpreter per side, from its own
empty working directory, with the same config file and argv on both sides.
The matrix covers every subcommand; the argument parser's texts (each
subcommand's --help, top-level --help, no arguments, an unknown command or
option, a bad --seed, an abbreviated option and a missing option value);
`simulate` at full load, in idle mode, with users but no idle mode and with
noise, at --jobs 1 and 2; curves with their Monte Carlo columns; the curve
subcommands and `simulate` writing to stdout; an --out file that already
holds more bytes than the new CSV (its old tail must go); beta and linear
gamma ranges; the rate next to beta = 2; the rate and load curves at the
edges of their beta and ratio axes, with and without noise; configs with
bad values, bad ranges,
empty lists and a lone `%`; an allocation too large to make; and
`validate --quick --seed 0`, whose
per-check times are stripped before the comparison. Prints per case
whether the exit code, stdout, stderr and --out file bytes are identical,
and exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from record import export

OUT = "out.csv"
SIM = "[sim]\nn_realizations = 300\n"
USERS = "[network]\nlambda_ue = 5.5118e-6\n"
NOISE = "[network]\nsigma_n2 = 1e-9\n"
SMALL_MC = "[sim]\nwith_mc = true\nn_realizations = 200\nn_bs_target = 100\n"
COMMANDS = ("coverage", "rate", "load-curves", "mgf", "simulate", "validate")

# (name, argv, config text or "" for none); argv gets --config when there is a config
CASES = [
    ("no-arguments", [], ""),
    ("top-help", ["--help"], ""),
    *((f"{name}-help", [name, "--help"], "") for name in COMMANDS),
    ("unknown-command", ["bogus"], ""),
    ("unknown-option", ["rate", "--db"], ""),
    ("bad-seed-option", ["simulate", "--seed", "x"], ""),
    ("abbreviation", ["mgf", "--o", OUT, "--se", "4"], ""),
    ("missing-value", ["coverage", "--out"], ""),
    ("coverage", ["coverage", "--out", OUT], ""),
    ("coverage-noise-db", ["coverage", "--db", "--out", OUT],
     NOISE + "[grid]\ngamma_unit = linear\ngamma_start = -10\ngamma_stop = 20\ngamma_step = 5\n"),
    ("rate", ["rate", "--out", OUT], ""),
    ("rate-betas", ["rate", "--out", OUT], "[grid]\nbetas = 2.5 3 3.5 4 4.5 5\n"),
    ("load-curves", ["load-curves", "--out", OUT], ""),
    ("load-curves-actual", ["load-curves", "--out", OUT], "[experiment]\nkind = ActualRateVsRatio\n"),
    ("load-curves-coverage", ["load-curves", "--out", OUT], "[experiment]\nkind = CoveragePartialLoad\n"),
    ("mgf", ["mgf", "--out", OUT], "[network]\nkappa = 2.5\np_tx = 0.5\n[grid]\nx_values = 0 0.5 1 2 5 20\n"),
    *((f"{name}-stdout", [name], "") for name in ("coverage", "rate", "load-curves", "mgf")),
    ("simulate-stdout", ["simulate", "--seed", "7"], SIM),
    ("overwrite-longer", ["mgf", "--out", OUT], ""),
    ("coverage-with-mc", ["coverage", "--out", OUT, "--jobs", "2"],
     "[grid]\ngamma_start = -10\ngamma_stop = 20\ngamma_step = 5\n[sim]\nwith_mc = true\nn_realizations = 300\n"),
    ("load-curves-with-mc", ["load-curves", "--out", OUT],
     "[grid]\nratios = 0.5 4.34\nbetas = 4\n[sim]\nwith_mc = true\nn_realizations = 200\nn_bs_target = 100\n"),
    *(
        (f"simulate-{name}-j{jobs}", ["simulate", "--out", OUT, "--jobs", str(jobs), "--seed", "7"], config)
        for name, config in (
            ("full", SIM),
            ("full-beta3-8000", "[network]\nbeta = 3\n[sim]\nn_realizations = 60\nn_bs_target = 8000\n"),
            ("idle", USERS + "[sim]\nn_realizations = 200\nidle_mode = true\n"),
            ("users", USERS + "[sim]\nn_realizations = 200\n"),
            ("noise", NOISE + SIM),
        )
        for jobs in (1, 2)
    ),
    ("bad-number", ["mgf"], "[network]\nkappa = abc\n"),
    ("bad-integer", ["simulate"], "[sim]\nn_realizations = 1e3\n"),
    ("bad-boolean", ["load-curves"], "[sim]\nwith_mc = maybe\n"),
    ("bad-list", ["rate"], "[grid]\nbetas = 3 x\n"),
    ("two-bad-values", ["rate"], "[network]\nkappa = abc\nlambda_ue = many\n"),
    ("bad-beta", ["coverage"], "[network]\nbeta = 2.0\n"),
    ("bad-seed-under-override", ["simulate", "--seed", "3"], "[sim]\nseed = 1.5\n"),
    ("negative-seed", ["simulate"], "[sim]\nseed = -1\n"),
    ("small-window", ["simulate"], "[sim]\nn_bs_target = 10\n"),
    ("idle-without-users", ["simulate"], "[sim]\nidle_mode = true\n"),
    ("unknown-key", ["rate"], "[network]\nbandwidth = 10\n"),
    ("rate-beta-range", ["rate", "--out", OUT], "[grid]\nbeta_start = 3\nbeta_stop = 4.5\nbeta_step = 0.25\n"),
    ("coverage-linear", ["coverage", "--out", OUT],
     "[grid]\ngamma_unit = linear\ngamma_start = 0\ngamma_stop = 10\ngamma_step = 2.5\nbetas = 3 4\n"),
    ("gamma-stop-below-start", ["coverage"], "[grid]\ngamma_start = 5\ngamma_stop = 0\n"),
    ("gamma-step-zero", ["coverage"], "[grid]\ngamma_step = 0\n"),
    ("negative-beta-step", ["rate"], "[grid]\nbeta_step = -0.5\n"),
    ("bad-gamma-unit", ["coverage"], "[grid]\ngamma_unit = Bels\n"),
    ("rate-with-mc", ["rate", "--out", OUT], "[grid]\nbetas = 3 4\n" + SMALL_MC),
    ("load-curves-actual-with-mc", ["load-curves", "--out", OUT],
     "[experiment]\nkind = ActualRateVsRatio\n[grid]\nratios = 0.5 4.34\nbetas = 4\n" + SMALL_MC),
    ("load-curves-coverage-with-mc", ["load-curves", "--out", OUT],
     "[experiment]\nkind = CoveragePartialLoad\n[grid]\nratios = 0.5 4.34\ngamma_start = -5\ngamma_stop = 10\n"
     "gamma_step = 5\n" + SMALL_MC),
    # the edges of the beta and ratio axes that one quadrature pass covers: beta 4 (numpy's
    # sqrt path for x ** 0.5), the root of 2 beta^2 - 11 beta + 10 at 4.3508, where the closed
    # form's partial fractions have a removable singularity, beta near 2 and p_active from
    # 0.12 to 1
    ("rate-edge-betas", ["rate", "--out", OUT], "[grid]\nbetas = 2.05 3 4 4.3508 4.36 5\n"),
    # beta next to 2: the quadrature's upper piece is empty at 2 + 1e-12, and the closed form
    # serves every beta
    ("rate-near-two", ["rate", "--out", OUT], "[grid]\nbetas = 2.000000000001 2.00001 2.0001 3\n"),
    *(
        (f"load-curves-{name}-edges", ["load-curves", "--out", OUT],
         f"[experiment]\nkind = {kind}\n{network}[grid]\nbetas = 2.05 3 4 5\nratios = 0.1 0.17 4.34 20\n")
        for name, kind, network in (
            ("peak", "PeakRateVsRatio", ""),
            ("actual", "ActualRateVsRatio", ""),
            ("coverage", "CoveragePartialLoad", ""),
            ("coverage-noise", "CoveragePartialLoad", NOISE),
        )
    ),
    ("empty-betas-rate", ["rate"], "[grid]\nbetas =\n"),
    ("empty-betas-coverage", ["coverage"], "[grid]\nbetas =\n"),
    ("empty-ratios", ["load-curves"], "[grid]\nratios =\n"),
    ("empty-x-values", ["mgf"], "[grid]\nx_values =\n"),
    ("unused-bad-gamma-step", ["rate"], "[grid]\ngamma_step = abc\n"),
    ("bad-kind-and-value", ["rate"], "[experiment]\nkind = Sideways\n[network]\nkappa = abc\n"),
    ("beta-stop-below-start", ["coverage"], "[grid]\nbeta_start = 4\nbeta_stop = 3\n"),
    ("huge-draw", ["simulate"], "[network]\nlambda_ue = 1e6\nlambda_bs = 1e-6\n[sim]\nn_realizations = 1\n"),
    ("validate-quick", ["validate", "--quick", "--seed", "0", "--out", OUT], ""),
    # expected to differ from a parent that reads config values outside its parse-error handler:
    # a lone "%" was a configparser traceback and exit 1, and is a config error, exit 2
    ("percent-in-value", ["rate"], "[experiment]\noutput = 100%.csv\n"),
]

# bytes already in the --out file before a case runs
STALE = {"overwrite-longer": b"stale,row\n" * 20_000}

RUNNER = "import sys; sys.path.insert(0, sys.argv[1]); from ppcell.cli import main; sys.exit(main(sys.argv[2:]))"
# validate's per-check wall times: "[0.8s]" at the end of a report line, the last CSV field
TIMES = re.compile(rb" \[\d+\.\d+s\]$|,\d+\.\d+$", re.MULTILINE)


def check_import(tree: Path) -> None:
    """Refuse to compare a tree whose ppcell would be imported from elsewhere."""
    src = str(tree / "src")
    code = "import sys; sys.path.insert(0, sys.argv[1]); import ppcell.cli; print(ppcell.cli.__file__)"
    path = subprocess.run([sys.executable, "-c", code, src], check=True, capture_output=True, text=True).stdout
    if not path.startswith(src):
        raise RuntimeError(f"ppcell was imported from {path.strip()}, not {src}")


def run_case(tree: Path, cwd: Path, argv: list[str], stale: bytes | None = None) -> dict[str, object]:
    """Exit code, stdout, stderr and --out bytes of one fresh `ppcell` call, its --out file first holding stale."""
    cwd.mkdir(parents=True)
    if stale is not None:
        (cwd / OUT).write_bytes(stale)
    proc = subprocess.run([sys.executable, "-c", RUNNER, str(tree / "src"), *argv], cwd=cwd, capture_output=True)
    out = cwd / OUT
    result = {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
              "out": out.read_bytes() if out.exists() else None}
    if argv[:1] == ["validate"]:
        for key in ("stdout", "out"):
            if result[key] is not None:
                result[key] = TIMES.sub(b"", result[key])
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git ref of the parent commit")
    args = parser.parse_args(argv)

    work = Path(tempfile.mkdtemp(prefix="ppcell-same-"))
    try:
        trees = {"parent": work / "parent", "change": work / "change"}
        export(args.base, trees["parent"])
        export("HEAD", trees["change"])
        for tree in trees.values():
            check_import(tree)
        fields = ("exit", "stdout", "stderr", "out")
        print(f"{'case':<28} " + " ".join(f"{field:>6}" for field in fields), flush=True)
        differ = []
        for name, case_argv, config in CASES:
            full_argv = list(case_argv)
            if config:
                path = work / f"{name}.ini"
                path.write_text(config)
                full_argv += ["--config", str(path)]
            results = {side: run_case(tree, work / "runs" / side / name, full_argv, STALE.get(name))
                       for side, tree in trees.items()}
            same = [results["parent"][field] == results["change"][field] for field in fields]
            if not all(same):
                differ.append(name)
            print(f"{name:<28} " + " ".join(f"{'same' if s else 'DIFF':>6}" for s in same)
                  + f"  (exit {results['parent']['exit']})", flush=True)
        print(f"{len(CASES) - len(differ)} of {len(CASES)} cases identical"
              + (f"; differ: {', '.join(differ)}" if differ else ""))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
