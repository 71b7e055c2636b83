"""Tests of the benchmark itself.

    python3 -m pytest perfbench/selftest.py

The file name keeps these out of the repository's default pytest collection,
because each test runs the benchmark for a second or two.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))
import ppcell.cli  # noqa: E402


def _inputs(tmp: Path, name: str, seed: int) -> list:
    """argv and INI files of the first ops, per op."""
    tmp.mkdir()
    wl = workloads.make(name, seed, tmp)
    ops = []
    for i in range(4):
        argv = [[a.replace(str(tmp), "") for a in c.argv] for c in wl.op(i)]
        ops.append((argv, sorted((p.name, p.read_text()) for p in tmp.glob("*.ini"))))
    return ops


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_repeat_for_a_seed_and_differ_across_seeds_and_ops(tmp_path, name):
    first = _inputs(tmp_path / "a", name, 7)
    assert first == _inputs(tmp_path / "b", name, 7)
    again = _inputs(tmp_path / "c", name, 8)
    assert all(a != b for a, b in zip(first, again))
    # no two ops of a run give the program the same input
    assert len({repr(op) for op in first}) == len(first)


def _main(capsys, *argv) -> tuple[int, dict, str]:
    rc = run.main(["--seconds", "0.3", *argv])
    out = capsys.readouterr().out
    return rc, json.loads(out.strip().splitlines()[-1]), out


@pytest.mark.parametrize("name", ["curves", "mc-idle"])
def test_traced_run_writes_the_untraced_csvs(tmp_path, capsys, name):
    wl = workloads.make(name, 5, tmp_path)
    ledger = run.Ledger()
    _, calls = run.run_op(ppcell.cli, wl, 0, ledger)
    untraced = [c.out.read_bytes() for c in calls]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run.run_op(ppcell.cli, wl, 0, ledger)
    finally:
        tracer.uninstall()
    assert tracer.spans and not ledger.errors
    assert [c.out.read_bytes() for c in calls] == untraced
    # the traced run makes the same comparison on every op it traces
    rc, result, out = _main(capsys, "--workload", name, "--seed", "5", "--trace", "1")
    assert rc == 0 and result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m for m, _ in tracing.PER_LAYER}


@pytest.fixture
def one_setup(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


@pytest.mark.parametrize("name,column", [("curves", "pcov_approx"), ("mc-full", "n_active_bs")])
def test_corrupted_cell_counts_as_failed_op(monkeypatch, capsys, one_setup, name, column):
    write_csv = ppcell.cli._write_csv
    state = {"done": False}

    def corrupting(path, header, rows):
        rows = [list(r) for r in rows]
        if column in header and not state["done"]:
            state["done"] = True
            rows[1][header.index(column)] *= 1.0 + 1e-8 if name == "curves" else 0
        write_csv(path, header, rows)

    monkeypatch.setattr(ppcell.cli, "_write_csv", corrupting)
    rc, result, out = _main(capsys, "--workload", name, "--seed", "2")
    assert rc == 1 and not result["correct"] and result["failed"] == 1
    assert f"(1/{result['attempted']} ops)" in out


def test_raised_exception_counts_as_failed_op(monkeypatch, capsys, one_setup):
    run_experiment = ppcell.cli.run_experiment
    calls = {"n": 0}

    def flaky(spec):
        calls["n"] += 1
        if calls["n"] == 9:
            raise RuntimeError("injected")
        return run_experiment(spec)

    monkeypatch.setattr(ppcell.cli, "run_experiment", flaky)
    rc, result, out = _main(capsys, "--workload", "curves", "--seed", "2")
    assert rc == 1 and not result["correct"] and result["failed"] == 1
    assert f"error_rate = {1 / result['attempted']:.6g}" in out


def test_mpmath_sample_is_checked_after_the_ops(tmp_path):
    wl = workloads.make("curves", 3, tmp_path)
    ledger = run.Ledger()
    _, calls = run.run_op(ppcell.cli, wl, 0, ledger)
    assert run.check_op(wl, 0, calls, ledger) == 647 and not ledger.errors
    assert {(op, kind) for op, _, _, kind, *_ in wl.mp_pending} == {(0, "pcov"), (0, "mgf")}
    assert wl.finish() == {}
    run.check_op(wl, 0, calls, ledger)
    op, family, value, *rest = wl.mp_pending[-1]
    wl.mp_pending[-1] = (op, family, value * (1.0 + 1e-8), *rest)
    bad = wl.finish()
    assert list(bad) == [0] and "mpmath" in bad[0][0]


@pytest.mark.parametrize("beta", [2.1, 3.0, 4.3508, 5.0])
def test_oracle_matches_adaptive_quadrature_and_mpmath(beta):
    from scipy.integrate import quad

    oracle = workloads.oracle
    for exact in (True, False):
        for p in (0.05, 0.5, 1.0):
            def integrand(w):
                bracket = 1.0 - oracle.kummer(beta, w) if exact else oracle.bracket_approx(beta, w)
                return 1.0 / ((1.0 - p * float(bracket)) * (1.0 + w))

            c = oracle.branch_point(beta)
            ref = quad(integrand, 0.0, c, epsabs=1e-12, limit=200)[0] + quad(
                lambda v: integrand(float(np.exp(v))) * float(np.exp(v)), np.log(c), oracle.LOG_W_MAX,
                epsabs=1e-12, limit=400)[0]
            assert abs(oracle.rate(beta, p, exact)[0] - ref) < 1e-8
    xs = np.array([0.0, 1e-3, 0.7, 1.3, 20.0, 1000.0])
    refs = [oracle.kummer_mp(beta, x) for x in xs]
    assert np.all(oracle.rel_close(oracle.kummer(beta, xs), refs, 1e-13))


def test_tail_has_ten_samples_beyond_it():
    value, percentile = run.tail([float(v) for v in range(1, 101)])
    assert value == 90.0 and percentile == 90.0


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    p = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "curves", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert p.returncode != 0 and p.stdout == ""
