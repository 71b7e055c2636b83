"""CLI contract: strict config parsing, exit codes, and CSV output shape.

Runs everything in-process through main(argv) so exit codes and output are
observable without spawning a shell.
"""

import argparse
import contextlib
import csv
import errno
import hashlib
import io
import math
import os
import random
import subprocess
import sys
import tempfile
import textwrap
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppcell import cli, validation
from ppcell.analytics import load_model, pcov_general, rate_actual, rate_closed_general, rate_quadrature
from ppcell.cli import ConfigError, ExperimentKind, main, parse_config
from ppcell.mgf import NetworkParams, NonConvergenceError
from ppcell.simulator import SimConfig


def write_cfg(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def read_rows(capsys):
    out = capsys.readouterr().out
    return list(csv.reader(io.StringIO(out)))


class TestConfigParsing:
    def test_unknown_section(self, tmp_path):
        path = write_cfg(tmp_path, "[nonsense]\nx = 1\n")
        with pytest.raises(ConfigError, match="unknown config section"):
            parse_config(path)

    def test_unknown_key_names_the_key(self, tmp_path):
        path = write_cfg(tmp_path, "[network]\nbandwidth = 10\n")
        with pytest.raises(ConfigError, match="network.bandwidth"):
            parse_config(path)

    def test_missing_file_exit_code(self, capsys):
        assert main(["coverage", "--config", "/no/such/file.ini"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_beta_exit_code(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "[network]\nbeta = 2.0\n")
        assert main(["coverage", "--config", path]) == 2
        assert "beta" in capsys.readouterr().err

    def test_kind_subcommand_mismatch(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "[experiment]\nkind = RateVsBeta\n")
        assert main(["coverage", "--config", path]) == 2
        assert "not valid for the coverage subcommand" in capsys.readouterr().err

    def test_unknown_kind(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "[experiment]\nkind = Sideways\n")
        assert main(["rate", "--config", path]) == 2

    def test_negative_linear_gamma_grid(self, tmp_path, capsys):
        path = write_cfg(
            tmp_path,
            """\
            [grid]
            gamma_unit = linear
            gamma_start = -10
            gamma_stop = 10
            gamma_step = 5
            """,
        )
        assert main(["coverage", "--config", path]) == 2
        assert "gamma_unit=db" in capsys.readouterr().err

    def test_db_flag_overrides_linear_unit(self, tmp_path, capsys):
        path = write_cfg(
            tmp_path,
            """\
            [grid]
            gamma_unit = linear
            gamma_start = -10
            gamma_stop = 10
            gamma_step = 10
            [network]
            beta = 4.0
            """,
        )
        assert main(["coverage", "--config", path, "--db"]) == 0
        capsys.readouterr()

    def test_non_numeric_value(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "[network]\nlambda_bs = plenty\n")
        assert main(["coverage", "--config", path]) == 2
        assert "lambda_bs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,text,line",
        [
            ("mgf", "[network]\nkappa = abc\n", "network.kappa must be a number, got 'abc'"),
            ("simulate", "[sim]\nn_realizations = 1e3\n", "sim.n_realizations must be an integer, got '1e3'"),
            ("load-curves", "[sim]\nwith_mc = maybe\n", "sim.with_mc must be a boolean, got 'maybe'"),
            ("rate", "[grid]\nbetas = 3 x\n", "grid.betas must be a list of numbers, got '3 x'"),
            ("coverage", "[grid]\ngamma_step = 0\n", "grid.gamma_step must be positive, got 0.0"),
            ("rate", "[grid]\nbeta_step = -0.5\n", "grid.beta_step must be positive, got -0.5"),
            ("coverage", "[grid]\ngamma_start = 5\ngamma_stop = 0\n", "grid.gamma_stop 0.0 is below gamma_start 5.0"),
            ("coverage", "[grid]\ngamma_unit = bels\n", "grid.gamma_unit must be 'db' or 'linear', got 'bels'"),
            # every value parses, whether or not the run reads it, and before the kind is checked
            ("rate", "[grid]\ngamma_step = abc\n", "grid.gamma_step must be a number, got 'abc'"),
            ("validate", "[grid]\nx_values = 1 x\n", "grid.x_values must be a list of numbers, got '1 x'"),
            ("rate", "[experiment]\nkind = Sideways\n[network]\nkappa = abc\n", "network.kappa must be a number, got 'abc'"),
            # nan and inf: a grid number is refused where it is parsed (1e400 parses to inf) ...
            ("mgf", "[grid]\nx_values = nan\n", "grid.x_values must be a list of numbers, got 'nan'"),
            ("coverage", "[grid]\ngamma_start = nan\n", "grid.gamma_start must be a number, got 'nan'"),
            ("coverage", "[grid]\ngamma_step = inf\n", "grid.gamma_step must be a number, got 'inf'"),
            ("coverage", "[grid]\ngamma_stop = inf\n", "grid.gamma_stop must be a number, got 'inf'"),
            ("load-curves", "[grid]\nratios = nan\n", "grid.ratios must be a list of numbers, got 'nan'"),
            ("load-curves", "[grid]\nratios = 1 inf\n", "grid.ratios must be a list of numbers, got '1 inf'"),
            ("rate", "[grid]\nbetas = 3 -Infinity\n", "grid.betas must be a list of numbers, got '3 -Infinity'"),
            ("rate", "[grid]\nbeta_stop = 1e400\n", "grid.beta_stop must be a number, got '1e400'"),
            # ... and a network one by NetworkParams, which names the field
            ("simulate", "[network]\nlambda_ue = nan\n[sim]\nidle_mode = true\nn_realizations = 5\n",
             "network: lambda_ue must be finite, got nan"),
            ("coverage", "[network]\nsigma_n2 = nan\n", "network: sigma_n2 must be finite, got nan"),
            ("mgf", "[network]\nkappa = inf\n", "network: kappa must be finite, got inf"),
            ("rate", "[network]\nlambda_bs = 1e400\n", "network: lambda_bs must be finite, got inf"),
        ],
        ids=[
            "number", "integer", "boolean", "list", "gamma-step", "beta-step", "gamma-stop", "gamma-unit",
            "unread-grid-key", "unread-list", "value-before-kind", "nan-x-values", "nan-gamma-start",
            "inf-gamma-step", "inf-gamma-stop", "nan-ratios", "inf-ratios", "inf-betas", "overflow-beta-stop",
            "nan-lambda-ue", "nan-sigma-n2", "inf-kappa", "overflow-lambda-bs",
        ],
    )
    def test_bad_value_error_line(self, tmp_path, capsys, command, text, line):
        assert main([command, "--config", write_cfg(tmp_path, text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: {line}\n"

    def test_lone_percent_sign_is_a_config_error(self, tmp_path, capsys):
        # configparser's interpolation reads "%" when the values are read, after the file parses
        path = write_cfg(tmp_path, "[experiment]\noutput = 100%.csv\n")
        assert main(["rate", "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"config error: cannot parse {path}: '%' must be followed by '%' or '(', found: '%.csv'\n"
        )
        assert not (tmp_path / "100%.csv").exists()

    def test_percent_escapes_and_references_keep_their_meaning(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_cfg(tmp_path, "[experiment]\nkind = RateVsBeta\noutput = %(kind)s-100%%.csv\n[grid]\nbetas = 4\n")
        assert main(["rate", "--config", path]) == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "RateVsBeta-100%.csv").read_text().startswith("beta,")

    @pytest.mark.parametrize("hash_seed", ["0", "1"])
    def test_first_bad_value_is_the_same_in_every_process(self, tmp_path, hash_seed):
        # network keys parse in a fixed order, not the config's and not a
        # set's, whose order changes with the hash seed
        path = write_cfg(tmp_path, "[network]\nkappa = abc\nlambda_ue = many\n")
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "ppcell.cli", "rate", "--config", path],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "config error: network.lambda_ue must be a number, got 'many'\n"

    @pytest.mark.parametrize("command", ["rate", "coverage", "mgf"])
    def test_beta_list_and_range_refused_together(self, tmp_path, capsys, command):
        path = write_cfg(tmp_path, "[grid]\nbetas = 3 4\nbeta_start = 2.5\nbeta_step = 0.5\n")
        assert main([command, "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "config error: grid.betas lists the betas; grid.beta_start, grid.beta_step "
            "would be ignored, set one or the other\n"
        )

    @pytest.mark.parametrize("key", ["betas", "ratios", "x_values"])
    @pytest.mark.parametrize("kind", list(ExperimentKind), ids=lambda kind: kind.value)
    def test_empty_list_refused_naming_the_key(self, tmp_path, capsys, kind, key):
        path = write_cfg(tmp_path, f"[experiment]\nkind = {kind.value}\n[grid]\n{key} =\n")
        assert main([cli._KINDS[kind].command, "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: grid.{key} must be a list of numbers, got ''\n"

    def test_allocation_failure_is_a_config_error(self, tmp_path, capsys):
        # the user draw asks for 3.55 PiB, past a 48-bit address space, so it fails at once
        path = write_cfg(tmp_path, "[network]\nlambda_ue = 1e6\nlambda_bs = 1e-6\n[sim]\nn_realizations = 1\n")
        assert main(["simulate", "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: Unable to allocate 3.55 PiB for an array")
        assert captured.err.count("\n") == 1

    def test_beta_range_alone_still_sweeps(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "[grid]\nbeta_start = 3\nbeta_stop = 4\nbeta_step = 0.5\n")
        assert main(["rate", "--config", path]) == 0
        assert [float(row[0]) for row in read_rows(capsys)[1:]] == [3.0, 3.5, 4.0]


class TestOutputPath:
    @pytest.mark.parametrize("via", ["--out", "experiment.output"])
    def test_unwritable_path_is_a_config_error(self, tmp_path, capsys, via):
        target = tmp_path / "missing" / "x.csv"
        if via == "--out":
            argv = ["rate", "--out", str(target)]
        else:
            argv = ["rate", "--config", write_cfg(tmp_path, f"[experiment]\noutput = {target}\n")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: cannot write {target}: ")
        assert not target.exists()

    def test_unwritable_path_refused_before_the_run(self, tmp_path, capsys, monkeypatch):
        def never(spec):
            raise AssertionError("the run started before the output path was checked")

        row = cli._KINDS[ExperimentKind.VALIDATE]
        monkeypatch.setitem(cli._KINDS, ExperimentKind.VALIDATE, replace(row, runner=never))
        target = tmp_path / "missing" / "x.csv"
        assert main(["validate", "--quick", "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"config error: cannot write {target}: No such file or directory\n"

    @pytest.mark.parametrize("existing", [True, False], ids=["existing", "new"])
    def test_failing_run_leaves_output_as_it_was(self, tmp_path, capsys, monkeypatch, existing):
        def fails(spec):
            raise NonConvergenceError("injected")

        row = cli._KINDS[ExperimentKind.RATE_VS_BETA]
        monkeypatch.setitem(cli._KINDS, ExperimentKind.RATE_VS_BETA, replace(row, runner=fails))
        target = tmp_path / "x.csv"
        if existing:
            target.write_text("earlier,run\n")
        assert main(["rate", "--out", str(target)]) == 3
        assert capsys.readouterr().err == "numerical failure: injected\n"
        if existing:
            assert target.read_text() == "earlier,run\n"
        else:
            assert not target.exists()


class TestCoverageCommand:
    def test_csv_shape_and_values(self, tmp_path, capsys):
        path = write_cfg(
            tmp_path,
            """\
            [network]
            beta = 4.0
            [grid]
            betas = 4.0
            gamma_start = 0
            gamma_stop = 10
            gamma_step = 5
            """,
        )
        assert main(["coverage", "--config", path]) == 0
        rows = read_rows(capsys)
        assert rows[0] == ["beta", "gamma", "gamma_db", "pcov_exact", "pcov_approx"]
        assert len(rows) == 1 + 3
        # 0 dB is gamma = 1 in linear units
        assert float(rows[1][1]) == pytest.approx(1.0)
        assert float(rows[1][3]) == pytest.approx(0.537193186192758, rel=1e-12)
        assert float(rows[1][4]) == pytest.approx(6.0 / 11.0, rel=1e-12)

    def test_default_run_shape(self, capsys):
        # no config: 6 betas x 41 thresholds
        assert main(["coverage"]) == 0
        rows = read_rows(capsys)
        assert len(rows) == 1 + 6 * 41

    def test_mc_columns_and_jobs_invariance(self, tmp_path):
        path = write_cfg(
            tmp_path,
            """\
            [grid]
            betas = 4.0
            gamma_start = -5
            gamma_stop = 5
            gamma_step = 5
            [sim]
            with_mc = true
            n_bs_target = 64
            n_realizations = 200
            """,
        )
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["coverage", "--config", path, "--out", str(out1), "--jobs", "1"]) == 0
        assert main(["coverage", "--config", path, "--out", str(out2), "--jobs", "3"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        with open(out1) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][-2:] == ["pcov_mc", "pcov_mc_stderr"]
        for row in rows[1:]:
            assert 0.0 <= float(row[5]) <= 1.0


class TestRateCommand:
    def test_reference_values(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "[grid]\nbetas = 3.0 4.0\n")
        assert main(["rate", "--config", path]) == 0
        rows = read_rows(capsys)
        assert rows[0] == ["beta", "rate_exact_quad", "rate_closed", "closed_method"]
        assert len(rows) == 3
        assert float(rows[1][1]) == pytest.approx(0.829489013005295, abs=1e-8)
        assert float(rows[2][1]) == pytest.approx(1.39142060867317, abs=1e-8)
        assert rows[1][3] == "ClosedFormGeneral"

    def test_beta_next_to_two(self, tmp_path, capsys):
        # the rate integral's upper piece is empty there; the closed form serves it too
        path = write_cfg(tmp_path, "[grid]\nbetas = 2.000000000001 3\n")
        assert main(["rate", "--config", path]) == 0
        rows = read_rows(capsys)
        near = rate_closed_general(2.000000000001)
        assert rows[1] == [
            "2.000000000001", repr(rate_quadrature(2.000000000001).value), repr(near.value), "ClosedFormGeneral"
        ]
        assert rows[2][3] == "ClosedFormGeneral"

    def test_mc_column(self, tmp_path, capsys):
        path = write_cfg(
            tmp_path,
            """\
            [grid]
            betas = 4.0
            [sim]
            with_mc = true
            n_bs_target = 64
            n_realizations = 150
            """,
        )
        assert main(["rate", "--config", path]) == 0
        rows = read_rows(capsys)
        assert rows[0][-2:] == ["rate_mc", "rate_mc_stderr"]
        assert float(rows[1][5]) > 0.0


class TestLoadCurvesCommand:
    def test_default_kind_is_peak_rate(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "[grid]\nbetas = 4.0\nratios = 1.0\n")
        assert main(["load-curves", "--config", path]) == 0
        rows = read_rows(capsys)
        assert rows[0][:4] == ["beta", "ratio", "p_active", "p_selection"]
        assert "rate_peak_exact" in rows[0]
        assert float(rows[1][2]) == pytest.approx(0.585051349019134, rel=1e-12)
        # no partial-load closed form: the closed column is two-piece quadrature
        assert rows[1][6] == "Quadrature"

    def test_closed_column_is_one_vector_quadrature(self, tmp_path, capsys):
        # beta = 3 and 4 take the route of every other beta: one vector call
        # over the ratio axis, whose values the CSV carries bit for bit
        path = write_cfg(tmp_path, "[grid]\nbetas = 3.0 4.0\nratios = 0.5 2.0 8.0\n")
        assert main(["load-curves", "--config", path]) == 0
        rows = read_rows(capsys)[1:]
        assert len(rows) == 6
        for beta in (3.0, 4.0):
            cells = [row for row in rows if float(row[0]) == beta]
            want = rate_quadrature(beta, [float(row[2]) for row in cells], "two_piece")
            for row, w in zip(cells, want):
                assert float(row[5]) == w.value, row
                assert row[6] == "Quadrature"

    def test_beta_next_to_two(self, tmp_path, capsys):
        # the float after 2 at a vanishing load: the tail budget is met below the branch
        # point, so both rate columns come from the lower piece alone
        path = write_cfg(tmp_path, "[experiment]\nkind = PeakRateVsRatio\n[grid]\n"
                                   "betas = 2.0000000000000004\nratios = 0.0001\n")
        assert main(["load-curves", "--config", path]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = list(csv.reader(io.StringIO(captured.out)))
        assert len(rows) == 2
        pa = float(rows[1][2])
        want = [rate_quadrature(2.0000000000000004, pa, kind).value for kind in ("exact", "two_piece")]
        assert rows[1][4:] == [*map(repr, want), "Quadrature"]
        assert 0.0 < want[0] < 1e-9

    def test_actual_rate_kind(self, tmp_path, capsys):
        path = write_cfg(
            tmp_path,
            """\
            [experiment]
            kind = ActualRateVsRatio
            [grid]
            betas = 4.0
            ratios = 1.0
            """,
        )
        assert main(["load-curves", "--config", path]) == 0
        rows = read_rows(capsys)
        assert "rate_actual_exact" in rows[0]
        assert float(rows[1][4]) == pytest.approx(1.08997304082152, rel=1e-10)
        assert float(rows[1][5]) == pytest.approx(1.09300799421746, rel=1e-10)
        assert rows[1][6] == "Quadrature"

    def test_actual_rate_is_peak_times_selection(self, tmp_path, capsys):
        grid = "[grid]\nbetas = 3.0 4.5\nratios = 0.5 2.0\n"
        peak_cfg = write_cfg(tmp_path, grid, "peak.ini")
        actual_cfg = write_cfg(tmp_path, "[experiment]\nkind = ActualRateVsRatio\n" + grid, "actual.ini")
        assert main(["load-curves", "--config", peak_cfg]) == 0
        peak = read_rows(capsys)[1:]
        assert main(["load-curves", "--config", actual_cfg]) == 0
        actual = read_rows(capsys)[1:]
        assert len(peak) == len(actual) == 4
        for p_row, a_row in zip(peak, actual):
            assert p_row[:4] == a_row[:4]
            share = float(p_row[3])
            assert float(a_row[4]) == float(p_row[4]) * share
            assert float(a_row[5]) == float(p_row[5]) * share
            # same route as the library call, within its error bound
            beta, ratio = float(a_row[0]), float(a_row[1])
            lib = rate_actual(beta, ratio)
            assert abs(float(a_row[5]) - lib.value) <= 2.0 * lib.stderr
            assert a_row[6] == p_row[6] == lib.method.value

    def test_coverage_partial_load_kind(self, tmp_path, capsys):
        path = write_cfg(
            tmp_path,
            """\
            [experiment]
            kind = CoveragePartialLoad
            [grid]
            betas = 4.0
            ratios = 1.0
            gamma_start = 0
            gamma_stop = 0
            gamma_step = 1
            """,
        )
        assert main(["load-curves", "--config", path]) == 0
        rows = read_rows(capsys)
        assert rows[0][:5] == ["beta", "ratio", "p_active", "gamma", "gamma_db"]
        assert len(rows) == 2
        assert float(rows[1][5]) == pytest.approx(0.664876841666406, rel=1e-11)

    @pytest.mark.parametrize("kind", ["PeakRateVsRatio", "ActualRateVsRatio"])
    def test_ratio_cells_come_from_the_ratio_itself(self, tmp_path, capsys, kind):
        # 0.1 * 1.27e-6 / 1.27e-6 is 0.09999999999999999; the cells must be those of 0.1
        path = write_cfg(tmp_path, f"[experiment]\nkind = {kind}\n[grid]\nbetas = 4.0\nratios = 0.1\n")
        assert main(["load-curves", "--config", path]) == 0
        row = read_rows(capsys)[1]
        lm = load_model(0.1)
        assert row[1:4] == [repr(0.1), repr(lm.p_active), repr(lm.p_selection)]
        if kind == "ActualRateVsRatio":
            assert row[5] == repr(rate_actual(4.0, 0.1).value)

    def test_nonpositive_ratio_rejected(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "[grid]\nbetas = 4.0\nratios = 0.0 1.0\n")
        assert main(["load-curves", "--config", path]) == 2
        assert capsys.readouterr().err == "config error: grid.ratios must be positive, got 0.0\n"
        for kind in ("PeakRateVsRatio", "ActualRateVsRatio", "CoveragePartialLoad"):
            path = write_cfg(tmp_path, f"[experiment]\nkind = {kind}\n[grid]\nbetas = 4.0\nratios = -1.0 1.0\n")
            assert main(["load-curves", "--config", path]) == 2, kind
            captured = capsys.readouterr()
            assert captured.out == "", kind
            assert captured.err == "config error: grid.ratios must be positive, got -1.0\n", kind


class TestMgfCommand:
    def test_profile_columns(self, tmp_path, capsys):
        path = write_cfg(
            tmp_path,
            """\
            [network]
            beta = 4.0
            [grid]
            x_values = 0.0 1.0
            """,
        )
        assert main(["mgf", "--config", path]) == 0
        rows = read_rows(capsys)
        assert rows[0] == ["beta", "c_exact", "c_fit", "x", "mgf_exact", "mgf_approx", "rel_error"]
        assert float(rows[1][1]) == pytest.approx(1.28776169106, abs=1e-9)
        assert float(rows[1][4]) == 1.0  # MGF at s = 0
        assert float(rows[2][4]) == pytest.approx(0.422516108283754, rel=1e-10)

    def test_unused_keys_named_on_stderr(self, tmp_path, capsys):
        base = "[network]\nbeta = 4.0\n[grid]\nx_values = 0.0 1.0\n"
        assert main(["mgf", "--config", write_cfg(tmp_path, base, "base.ini")]) == 0
        plain = capsys.readouterr()
        assert plain.err == ""
        extra = (
            "[network]\nbeta = 4.0\nsigma_n2 = 0.5\nlambda_ue = 2.0\n"
            "[grid]\nx_values = 0.0 1.0\n[sim]\nwith_mc = true\n"
        )
        assert main(["mgf", "--config", write_cfg(tmp_path, extra, "extra.ini")]) == 0
        noted = capsys.readouterr()
        assert noted.out == plain.out
        assert noted.err == (
            "mgf: MgfProfile does not use config keys network.sigma_n2, network.lambda_ue, sim.with_mc\n"
        )

    def test_underflowed_mgf_has_nan_error_and_no_warning(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "[grid]\nbetas = 2.05\nx_values = 1 100\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["mgf", "--config", path]) == 0
        captured = capsys.readouterr()
        # both MGFs underflow to 0 at x = 100: 0/0 has no relative error
        assert captured.out == (
            "beta,c_exact,c_fit,x,mgf_exact,mgf_approx,rel_error\n"
            "2.05,1.185888522059206,1.1836911580189515,1.0,6.385707026902175e-18,6.839551436897971e-18,"
            "0.07107191233230824\n"
            "2.05,1.185888522059206,1.1836911580189515,100.0,0.0,0.0,nan\n"
        )
        assert captured.err == ""


def ini_text(sections: dict) -> str:
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) for name, keys in sections.items())


def written_csvs(directory) -> dict[str, bytes]:
    """The CSV files in directory by name, removed once read."""
    files = {path.name: path.read_bytes() for path in sorted(directory.glob("*.csv"))}
    for path in directory.glob("*.csv"):
        path.unlink()
    return files


# values that differ from the defaults, on small grids
_KEY_POOLS = {
    "experiment": {"output": ["cfg.csv"]},
    "network": {
        "lambda_bs": ["1e-6", "1e-3"], "lambda_ue": ["5e-6"], "beta": ["3.0", "4.5"],
        "kappa": ["2.0"], "p_tx": ["0.5"], "sigma_n2": ["1e-9"],
    },
    "grid": {
        "gamma_start": ["0", "2"], "gamma_stop": ["8"], "gamma_step": ["4"], "gamma_unit": ["linear"],
        "x_values": ["0 1.5"],
    },
    "sim": {"seed": ["7"], "idle_mode": ["true"], "with_mc": ["true"]},
}


def random_run(kind: ExperimentKind, rng: random.Random) -> tuple[str, dict, list[str]]:
    """A config that sets each key with probability 1/2, and an argv: (command, sections, argv)."""
    sections = {
        name: {key: rng.choice(values) for key, values in pool.items() if rng.random() < 0.5}
        for name, pool in _KEY_POOLS.items()
    }
    # a list or a range of betas: both together are refused
    ranged = {"beta_start": "3.5", "beta_stop": "4.0", "beta_step": "0.5"}
    sections["grid"].update(rng.choice([{}, {"betas": "3.0 4.0"}, ranged]))
    command = cli._KINDS[kind].command
    if rng.random() < 0.5 or cli._resolve_kind({}, command) is not kind:
        sections["experiment"]["kind"] = kind.value
    # set always, and so deleted wherever they are named: small sizes for the Monte Carlo runs
    sections["grid"]["ratios"] = "0.5 2"
    sections["sim"].update(n_bs_target="64", n_realizations="100")
    argv = [*rng.choice([[], ["--out", "out.csv"]]), *rng.choice([[], ["--seed", "3"]])]
    if "gamma" in cli._KINDS[kind].reads and rng.random() < 0.5:
        argv.append("--db")
    return command, sections, argv


class TestUnusedKeys:
    """Every kind names the config keys a run leaves unread, and only those."""

    LOAD = {"betas": "4.0", "ratios": "1.0"}
    GAMMA = {"gamma_start": "0", "gamma_stop": "5", "gamma_step": "5"}
    MC = {"with_mc": "true", "n_bs_target": "64", "n_realizations": "100"}

    @pytest.mark.parametrize(
        "command,kind,argv,base,extra,named",
        [
            (
                "coverage", "CoverageVsGamma", (), {"grid": {"betas": "4.0", **GAMMA}},
                {"network": {"beta": "3.0", "lambda_ue": "5e-6", "kappa": "2.0"},
                 "grid": {"x_values": "0 1"}, "sim": {"seed": "4"}},
                "network.beta, network.lambda_ue, network.kappa, grid.x_values, sim.seed",
            ),
            (
                "coverage", "CoverageVsGamma", (), {"grid": {"betas": "4.0", **GAMMA}, "sim": MC},
                {"network": {"beta": "3.0"}, "sim": {"seed": "0"}},
                "network.beta",
            ),
            (
                "rate", "RateVsBeta", (), {"grid": {"betas": "3.0 4.0"}},
                {"network": {"beta": "3.5", "lambda_bs": "2e-6", "p_tx": "3.0"},
                 "grid": {"gamma_step": "2", "ratios": "1"}, "sim": {"n_realizations": "50"}},
                "network.beta, network.lambda_bs, network.p_tx, grid.gamma_step, grid.ratios, sim.n_realizations",
            ),
            (
                "load-curves", "PeakRateVsRatio", (), {"grid": LOAD},
                {"network": {"lambda_ue": "1e-6", "kappa": "3.0"}, "grid": {"gamma_unit": "linear"},
                 "sim": {"idle_mode": "true"}},
                "network.lambda_ue, network.kappa, grid.gamma_unit, sim.idle_mode",
            ),
            (
                "load-curves", "ActualRateVsRatio", (), {"grid": LOAD},
                {"network": {"beta": "3.0"}, "grid": {"x_values": "1"}, "sim": {"with_mc": "false", "seed": "2"}},
                "network.beta, grid.x_values, sim.seed",
            ),
            (
                "load-curves", "CoveragePartialLoad", (), {"grid": {**LOAD, **GAMMA}},
                {"network": {"lambda_ue": "1e-6", "p_tx": "2.0"}, "grid": {"x_values": "0"},
                 "sim": {"n_bs_target": "64", "idle_mode": "false"}},
                "network.lambda_ue, network.p_tx, grid.x_values, sim.n_bs_target, sim.idle_mode",
            ),
            (
                "simulate", "RawSamples", (), {"sim": {"n_bs_target": "64", "n_realizations": "5"}},
                {"grid": {"betas": "3.0", "gamma_start": "1"}, "sim": {"with_mc": "true"}},
                "grid.betas, grid.gamma_start, sim.with_mc",
            ),
            # without noise the coverage is free of power, prefactor and density
            (
                "coverage", "CoverageVsGamma", (), {"grid": {"betas": "4.0", **GAMMA}},
                {"network": {"kappa": "2", "p_tx": "0.5", "lambda_bs": "1e-3"}},
                "network.kappa, network.p_tx, network.lambda_bs",
            ),
            (
                "rate", "RateVsBeta", (), {"grid": {"betas": "3.0"}, "sim": MC},
                {"network": {"kappa": "2", "p_tx": "3"}},
                "network.kappa, network.p_tx",
            ),
            # the load curves take the density ratio, not the densities
            (
                "load-curves", "ActualRateVsRatio", (), {"grid": LOAD},
                {"network": {"lambda_bs": "1e-3"}},
                "network.lambda_bs",
            ),
            (
                "load-curves", "CoveragePartialLoad", (), {"grid": {**LOAD, **GAMMA}},
                {"network": {"beta": "3", "kappa": "2"}},
                "network.beta, network.kappa",
            ),
            (
                "mgf", "MgfProfile", (), {"grid": {"betas": "4.0", "x_values": "0 1"}},
                {"network": {"beta": "3.0"}},
                "network.beta",
            ),
            (
                "simulate", "RawSamples", (), {"sim": {"n_bs_target": "64", "n_realizations": "5"}},
                {"network": {"kappa": "2", "p_tx": "0.5"}},
                "network.kappa, network.p_tx",
            ),
            (
                "coverage", "CoverageVsGamma", ("--out", "out.csv"), {"grid": {"betas": "4.0", **GAMMA}},
                {"experiment": {"output": "unused.csv"}},
                "experiment.output",
            ),
            (
                "simulate", "RawSamples", ("--seed", "3"), {"sim": {"n_bs_target": "64", "n_realizations": "5"}},
                {"sim": {"seed": "4"}},
                "sim.seed",
            ),
        ],
        ids=[
            "coverage", "coverage-mc", "rate", "peak", "actual", "partial", "simulate", "coverage-noiseless",
            "rate-mc", "actual-noiseless", "partial-grid-betas", "mgf-grid-betas", "simulate-noiseless",
            "output-and-out", "seed-and-seed",
        ],
    )
    def test_unread_keys_named_on_stderr(self, tmp_path, capsys, monkeypatch, command, kind, argv, base, extra, named):
        monkeypatch.chdir(tmp_path)
        base = {"experiment": {"kind": kind}, **base}
        plain_cfg = write_cfg(tmp_path, ini_text(base), "base.ini")
        assert main([command, "--config", plain_cfg, *argv]) == 0
        plain = capsys.readouterr()
        plain_csvs = written_csvs(tmp_path)
        assert plain.err == ""
        merged = {
            name: {**base.get(name, {}), **extra.get(name, {})}
            for name in ("experiment", "network", "grid", "sim") if name in base or name in extra
        }
        assert main([command, "--config", write_cfg(tmp_path, ini_text(merged), "extra.ini"), *argv]) == 0
        noted = capsys.readouterr()
        assert noted.out == plain.out
        assert written_csvs(tmp_path) == plain_csvs
        assert noted.err == f"{command}: {kind} does not use config keys {named}\n"

    def test_every_allowed_key_has_a_rule(self):
        spec = cli.ExperimentSpec(ExperimentKind.RAW_SAMPLES, NetworkParams(1e-6, 4.0), SimConfig())
        args = argparse.Namespace(out=None, seed=None, db=False)
        allowed = {f"{section}.{key}" for section, keys in cli._KEYS.items() for key in keys}
        assert set(cli._used_keys(spec, args, {})) == allowed

    @pytest.mark.parametrize("kind", list(ExperimentKind), ids=lambda kind: kind.value)
    def test_deleting_the_named_keys_changes_nothing(self, tmp_path, capsys, monkeypatch, kind):
        """Delete every key the stderr line names: stdout, CSV bytes and exit code stay."""
        monkeypatch.chdir(tmp_path)

        def suite(seed, jobs, quick):  # the suite's report depends on these alone
            print(f"seed {seed}, jobs {jobs}, quick {quick}")
            return [argparse.Namespace(label="stub", passed=True, message=f"seed {seed}", elapsed_s=0.0)]

        monkeypatch.setattr(validation, "run_all", suite)

        def outcome(command, cfg, argv):
            code = main([command, "--config", write_cfg(tmp_path, ini_text(cfg)), *argv])
            captured = capsys.readouterr()
            return (code, captured.out, written_csvs(tmp_path)), captured.err

        rng = random.Random(kind.value)
        for _ in range(12):
            command, sections, argv = random_run(kind, rng)
            result, err = outcome(command, sections, argv)
            prefix = f"{command}: {kind.value} does not use config keys "
            line = err.splitlines(keepends=True)[0] if err.startswith(prefix) else ""
            named = set(line[len(prefix):].strip().split(", ")) if line else set()
            pruned = {name: {k: v for k, v in keys.items() if f"{name}.{k}" not in named}
                      for name, keys in sections.items()}
            assert outcome(command, pruned, argv) == (result, err[len(line):]), (sections, argv)


class TestNoisyCoverage:
    """Both coverage kinds account for network.sigma_n2 in their analytic columns."""

    def test_analytic_column_within_three_stderr_of_monte_carlo(self, tmp_path):
        cfg = (
            "[network]\nsigma_n2 = 1e-9\n[grid]\nbetas = 4.0\ngamma_start = -5\ngamma_stop = 5\ngamma_step = 5\n"
            "[sim]\nwith_mc = true\nn_realizations = 2000\n"
        )
        out = tmp_path / "noisy.csv"
        assert main(["coverage", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 3
        for row in rows:
            exact, mc, stderr = float(row[3]), float(row[5]), float(row[6])
            assert abs(exact - mc) <= 3.0 * stderr, row
        # gamma = 0 dB: the noise-free column would read 0.5372
        assert float(rows[1][3]) == pytest.approx(0.098414, abs=5e-7)

    def test_partial_load_column_is_pcov_general(self, tmp_path, capsys):
        cfg = (
            "[experiment]\nkind = CoveragePartialLoad\n[network]\nsigma_n2 = 1e-9\n"
            "[grid]\nbetas = 4.0\nratios = 1.0\ngamma_start = 0\ngamma_stop = 0\ngamma_step = 1\n"
        )
        assert main(["load-curves", "--config", write_cfg(tmp_path, cfg)]) == 0
        row = read_rows(capsys)[1]
        p = NetworkParams(lambda_bs=1.27e-6, beta=4.0, sigma_n2=1e-9)
        p_active = float(row[2])
        assert float(row[5]) == pcov_general(1.0, p, p_active, "exact")
        assert float(row[6]) == pcov_general(1.0, p, p_active, "two_piece")
        assert float(row[5]) < pcov_general(1.0, replace(p, sigma_n2=0.0), p_active)


class TestSimulateCommand:
    CFG = """\
    [network]
    lambda_ue = 1.27e-6
    [sim]
    n_bs_target = 64
    n_realizations = 12
    idle_mode = true
    """

    def test_row_count_and_columns(self, tmp_path, capsys):
        path = write_cfg(tmp_path, self.CFG)
        assert main(["simulate", "--config", path]) == 0
        rows = read_rows(capsys)
        assert rows[0] == ["realization_id", "sir", "n_users", "n_active_bs"]
        assert len(rows) == 13
        assert [int(r[0]) for r in rows[1:]] == list(range(12))
        assert all(int(r[2]) >= 1 for r in rows[1:])

    def test_idle_mode_needs_users(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "[sim]\nidle_mode = true\nn_realizations = 5\n")
        assert main(["simulate", "--config", path]) == 2
        assert "lambda_ue" in capsys.readouterr().err

    def test_seed_override_changes_samples(self, tmp_path):
        path = write_cfg(tmp_path, self.CFG)
        out1 = tmp_path / "s0.csv"
        out2 = tmp_path / "s7.csv"
        assert main(["simulate", "--config", path, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", path, "--out", str(out2), "--seed", "7"]) == 0
        assert out1.read_bytes() != out2.read_bytes()

    def test_rerun_is_byte_identical(self, tmp_path):
        path = write_cfg(tmp_path, self.CFG)
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        assert main(["simulate", "--config", path, "--out", str(out1), "--jobs", "1"]) == 0
        assert main(["simulate", "--config", path, "--out", str(out2), "--jobs", "4"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("network", ["beta = 3.0", "beta = 5.0\nlambda_ue = 1.0e-6"])
    def test_full_load_csv_is_jobs_invariant(self, tmp_path, network):
        # 500 stations: 65-realization SIR blocks; two workers split the 37 rids of one
        path = write_cfg(tmp_path, f"[network]\n{network}\n[sim]\nn_bs_target = 500\nn_realizations = 37\n")
        out1 = tmp_path / "j1.csv"
        out2 = tmp_path / "j2.csv"
        assert main(["simulate", "--config", path, "--out", str(out1), "--jobs", "1"]) == 0
        assert main(["simulate", "--config", path, "--out", str(out2), "--jobs", "2"]) == 0
        assert out1.read_bytes() == out2.read_bytes()


    @pytest.mark.parametrize(
        "command,cfg",
        [
            ("simulate", "[network]\nbeta = 5.0\n{density}[sim]\nn_bs_target = 64\nn_realizations = 20\n"),
            ("coverage", "[network]\n{density}[grid]\nbetas = 5.0\n[sim]\nwith_mc = true\nn_bs_target = 64\n"
                         "n_realizations = 20\n"),
        ],
    )
    def test_noiseless_run_at_a_vanishing_density(self, tmp_path, command, cfg):
        # a 64-station window at 1e-300 has radius 4.5e150, and radius**5 overflows a float
        csvs = []
        for density in ("", "lambda_bs = 1e-300\n"):
            out = tmp_path / f"{len(csvs)}.csv"
            path = write_cfg(tmp_path, cfg.format(density=density))
            assert main([command, "--config", path, "--out", str(out)]) == 0
            csvs.append(out.read_bytes())
        assert csvs[1] == csvs[0]

    def test_user_mean_past_the_poisson_limit_is_a_config_error(self, tmp_path, capsys):
        # 1.27e-6 / 1e-300 * 64 users on average: numpy's Poisson draw takes at most about 9.2e18
        path = write_cfg(
            tmp_path,
            "[network]\nlambda_bs = 1e-300\nlambda_ue = 1.27e-6\n[sim]\nidle_mode = true\nn_bs_target = 64\n"
            "n_realizations = 5\n",
        )
        assert main(["simulate", "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "config error: the mean user count lambda_ue / lambda_bs * n_bs_target = 8.13e+295 is past numpy's "
            "Poisson limit 9.22e+18; raise lambda_bs or lower lambda_ue or n_bs_target\n"
        )

    @pytest.mark.parametrize(
        "command,cfg",
        [
            ("simulate", "[network]\nbeta = 5.0\n{network}[sim]\nn_bs_target = 64\nn_realizations = 20\n"),
            ("coverage", "[network]\n{network}[grid]\nbetas = 5.0\n"),
            ("coverage", "[network]\n{network}[grid]\nbetas = 5.0\n[sim]\nwith_mc = true\nn_bs_target = 64\n"
                         "n_realizations = 20\n"),
        ],
    )
    def test_noisy_run_at_a_vanishing_density_is_noise_limited(self, tmp_path, capsys, command, cfg):
        # radius**5 and (pi lambda)**2.5 leave the float range: every SINR
        # takes its limit 0 and every coverage above gamma = 0 reads 0
        runs = []
        for network in ("", "lambda_bs = 1e-300\nsigma_n2 = 1e-9\n"):
            path = write_cfg(tmp_path, cfg.format(network=network))
            assert main([command, "--config", path]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            runs.append(list(csv.DictReader(io.StringIO(captured.out))))
        quiet, noisy = runs
        assert len(noisy) == len(quiet) > 0
        if command == "simulate":
            assert [r["sir"] for r in noisy] == ["0.0"] * len(noisy)
            keep = ("realization_id", "n_users", "n_active_bs")
            assert [[r[k] for k in keep] for r in noisy] == [[r[k] for k in keep] for r in quiet]
        else:
            assert all(float(r["gamma"]) > 0.0 for r in noisy)
            columns = [k for k in noisy[0] if k.startswith("pcov")]
            assert {r[k] for r in noisy for k in columns} == {"0.0"}
            assert [r["gamma"] for r in noisy] == [r["gamma"] for r in quiet]


class TestValidateCommand:
    def test_quick_report(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(["validate", "--quick", "--jobs", "4", "--out", str(out)])
        capsys.readouterr()
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["check", "passed", "message", "elapsed_s"]
        assert len(rows) == 9
        assert [r[0] for r in rows[1:]] == [
            "branch-constant-table",
            "mgf-approx-tightness",
            "coverage-overlap",
            "rate-closed-forms",
            "mc-rate-full-load",
            "mc-density-invariance",
            "mc-idle-mode-curves",
            "property-suite",
        ]
        passed = [r[1] == "True" for r in rows[1:]]
        assert all(float(r[3]) >= 0.0 for r in rows[1:])
        # exit code mirrors the report: 0 only when every check passed
        assert code == (0 if all(passed) else 1)

    def test_config_uses_only_the_seed(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(validation, "run_all", lambda **kw: calls.append(kw) or [])
        path = write_cfg(tmp_path, "[network]\nbeta = 3.0\n[sim]\nseed = 5\nn_realizations = 100\n")
        assert main(["validate", "--config", path]) == 0
        assert calls == [{"seed": 5, "jobs": 1, "quick": False}]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "validate: Validate does not use config keys network.beta, sim.n_realizations\n"


class TestAxisContract:
    """Each kind checks its own swept axis; the other axes keep config order."""

    @pytest.mark.parametrize(
        "command,cfg",
        [
            ("rate", "[grid]\nbetas = 4.0 3.0\n"),
            ("load-curves", "[grid]\nbetas = 4.0\nratios = 2.0 1.0\n"),
            ("load-curves", "[experiment]\nkind = ActualRateVsRatio\n[grid]\nbetas = 4.0\nratios = 2.0 1.0\n"),
            ("mgf", "[grid]\nx_values = 1.0 0.5\n"),
        ],
        ids=["rate-betas", "peak-ratios", "actual-ratios", "mgf-x"],
    )
    def test_decreasing_swept_axis_refused(self, tmp_path, capsys, command, cfg):
        assert main([command, "--config", write_cfg(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: grid must be strictly increasing")

    @pytest.mark.parametrize(
        "command,cfg,column,n_rows",
        [
            ("coverage", "[grid]\nbetas = 4.0 3.0\ngamma_start = 0\ngamma_stop = 1\ngamma_step = 1\n", 0, 4),
            (
                "load-curves",
                "[experiment]\nkind = CoveragePartialLoad\n"
                "[grid]\nbetas = 4.0\nratios = 4.0 1.0\ngamma_start = 0\ngamma_stop = 0\ngamma_step = 1\n",
                1,
                2,
            ),
        ],
        ids=["coverage-betas", "partial-load-ratios"],
    )
    def test_unswept_axis_keeps_config_order(self, tmp_path, capsys, command, cfg, column, n_rows):
        assert main([command, "--config", write_cfg(tmp_path, cfg)]) == 0
        body = read_rows(capsys)[1:]
        assert len(body) == n_rows
        assert [float(row[column]) for row in body[:: n_rows // 2]] == [4.0, 1.0 if column else 3.0]

    def test_nonpositive_jobs_refused(self, capsys):
        assert main(["coverage", "--jobs", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: jobs must be positive, got 0\n"

    @pytest.mark.parametrize("command", ["rate", "mgf", "simulate", "validate"])
    def test_db_only_on_gamma_subcommands(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--db"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --db" in capsys.readouterr().err


class TestNoiseRefusal:
    """Rate kinds have no noisy analytic route, so they refuse sigma_n2 > 0."""

    @pytest.mark.parametrize(
        "command,kind",
        [("rate", "RateVsBeta"), ("load-curves", "PeakRateVsRatio"), ("load-curves", "ActualRateVsRatio")],
    )
    def test_rate_kinds_refuse_noise_before_any_row(self, tmp_path, capsys, monkeypatch, command, kind):
        def no_rows(*args, **kwargs):
            raise AssertionError("a rate was computed before the refusal")

        monkeypatch.setattr("ppcell.cli.rate_quadrature", no_rows)
        cfg = f"[experiment]\nkind = {kind}\n[network]\nsigma_n2 = 1e-12\n[grid]\nbetas = 4.0\nratios = 1.0\n"
        assert main([command, "--config", write_cfg(tmp_path, cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"config error: {kind} has no noisy rate route; network.sigma_n2 must be 0, got 1e-12\n"
        )

    def test_coverage_kinds_still_run_with_noise(self, tmp_path, capsys):
        grid = "[grid]\nbetas = 4.0\nratios = 1.0\ngamma_start = 0\ngamma_stop = 0\ngamma_step = 1\n"
        for command, kind in (("coverage", "CoverageVsGamma"), ("load-curves", "CoveragePartialLoad")):
            cfg = f"[experiment]\nkind = {kind}\n[network]\nsigma_n2 = 1e-12\n" + grid
            assert main([command, "--config", write_cfg(tmp_path, cfg)]) == 0, kind
            assert len(read_rows(capsys)) == 2, kind


def parse_outcome(parse, argv) -> tuple[object, str, str]:
    """What parse(argv) returns, or the code of the SystemExit it raises; stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


# argv -> exit code of the full parser (None: it parses)
PARSER_CASES = {
    "none": ([], 2),
    "help": (["--help"], 0),
    "bogus": (["bogus"], 2),
    "rate-db": (["rate", "--db"], 2),
    "jobs-x": (["coverage", "--jobs", "x"], 2),
    "rate-help": (["rate", "--help"], 0),
    "coverage-help": (["coverage", "-h"], 0),
    "validate-help": (["validate", "--quick", "--help"], 0),
    "unknown-option": (["mgf", "--bogus", "1"], 2),
    "extra-positional": (["rate", "extra"], 2),
    "abbreviation": (["simulate", "--se", "4"], None),
    "double-dash": (["rate", "--"], 2),
    "double-dash-value": (["load-curves", "--db", "--", "x"], 2),
    "missing-value": (["rate", "--seed"], 2),
    "missing-last-value": (["coverage", "--db", "--out"], 2),
    "option-before-command": (["--seed", "3", "rate"], 2),
    "every-option": (["validate", "--quick", "--jobs", "2", "--seed", "0", "--out", "v.csv"], None),
}

# tokens of a random argv: subcommands, their options (abbreviated too), values and bad tokens
ARGV_TOKENS = [
    *cli._COMMANDS, "--config", "--seed", "--out", "--jobs", "--db", "--quick", "-h", "--help",
    "--se", "--j", "--c", "--o", "--d", "--q", "--", "--seed=3", "--jobs=x", "--db=1",
    "1", "0", "-1", "x", "2.5", "a.ini", "", "bogus", "--bogus", "-x", "-",
]


class TestParser:
    """A call parses with its subcommand's own parser; every text and result stays that of the full parser."""

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_one_subparser_per_named_command(self, monkeypatch, command):
        full = cli._build_parser()
        assert all(name in full.format_usage() for name in cli._COMMANDS)
        monkeypatch.setattr(cli, "_build_parser", lambda: pytest.fail("built the full parser"))
        argv = [command, "--jobs", "2", "--seed", "5"]
        assert cli._parse_args(argv) == full.parse_args(argv)
        argv = [command, "--help"]
        one = parse_outcome(cli._parse_args, argv)
        assert one[0] == 0 and one[1].startswith(f"usage: ppcell {command} ")
        assert one == parse_outcome(full.parse_args, argv)

    @pytest.mark.parametrize("argv, code", list(PARSER_CASES.values()), ids=list(PARSER_CASES))
    def test_texts_match_the_full_parser(self, argv, code):
        got = parse_outcome(cli._parse_args, argv)
        assert got == parse_outcome(cli._build_parser().parse_args, argv)
        if code is None:
            assert isinstance(got[0], argparse.Namespace) and got[1:] == ("", "")
        else:
            assert got[0] == code
            # main exits before any run, with the same texts
            assert parse_outcome(main, argv) == got

    @settings(max_examples=300, deadline=None)
    @given(
        head=st.lists(st.sampled_from(list(cli._COMMANDS)), max_size=1),
        tail=st.lists(st.sampled_from(ARGV_TOKENS), max_size=6),
    )
    def test_random_argv_matches_the_full_parser(self, head, tail):
        argv = head + tail
        assert parse_outcome(cli._parse_args, argv) == parse_outcome(cli._build_parser().parse_args, argv)

    def test_module_entry_point_reads_sys_argv(self):
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "ppcell.cli", "rate", "--help"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: ppcell rate ")
        assert proc.stderr == ""


# name -> (argv, config text); each case writes its CSV with --out
CSV_PIN_CASES = {
    "coverage": (["coverage"], """\
        [grid]
        gamma_unit = linear
        gamma_start = 0
        gamma_stop = 10
        gamma_step = 2.5
        betas = 2.5 3 4.3508 5
        """),
    "rate": (["rate"], "[grid]\nbetas = 2.05 3 4.35 4.3508 5\n"),
    "load-curves-peak": (["load-curves"], "[grid]\nbetas = 3 4.3508\nratios = 0.17 4.34 11.11\n"),
    "load-curves-actual": (["load-curves"], """\
        [experiment]
        kind = ActualRateVsRatio
        [grid]
        betas = 3 4.3508
        ratios = 0.17 4.34 11.11
        """),
    "load-curves-coverage": (["load-curves"], """\
        [experiment]
        kind = CoveragePartialLoad
        [grid]
        gamma_unit = linear
        gamma_start = 0
        gamma_stop = 4
        gamma_step = 1
        betas = 3 4.3508
        ratios = 0.5 4.34
        """),
    "mgf": (["mgf"], "[grid]\nbetas = 3 4.3508\nx_values = 0 0.5 1 20 1e4 1e6\n"),
    "coverage-with-mc": (["coverage", "--seed", "3"], """\
        [grid]
        gamma_start = -10
        gamma_stop = 20
        gamma_step = 10
        betas = 4
        [sim]
        with_mc = true
        n_realizations = 50
        n_bs_target = 64
        """),
    "simulate-full": (["simulate", "--seed", "7"], "[sim]\nn_realizations = 40\nn_bs_target = 64\n"),
    "simulate-idle": (["simulate", "--seed", "7"], """\
        [network]
        lambda_ue = 5.5118e-6
        [sim]
        n_realizations = 40
        n_bs_target = 64
        idle_mode = true
        """),
}


class TestCsvPins:
    """Every CSV family pinned byte for byte by its sha256.

    The hashes were recorded from the csv-module writer, so they hold the
    joined-text writer to its bytes: the float reprs, inf, -inf (the dB of
    gamma = 0) and nan cells, the closed form next to its singular root at
    beta 4.3508, the Monte Carlo columns and both simulate modes.
    """

    SHA256 = {
        "coverage": "997df8f9dc8b523e8cdaebd142fb935ca2afbb8156891b4d68e5c93ec30dc837",
        "rate": "fba4b90890446fc68fdd9d1f42097d709a2c27e4e9419784cf495258618cde8b",
        "load-curves-peak": "a0a748eb720e9db73d37d16390c9bffe45ff20db3ac853a3379781aee4f7dd97",
        "load-curves-actual": "08c2275d5e4c769ac95197bd635bd9caf057dda6fee0b412936dad7dda9426bd",
        "load-curves-coverage": "1f7dd9e988737f15574745cd857ed8149675600cf613256f5510792c4a28eed0",
        "mgf": "b3a5925c43c4131b05d9f6662e28137a6cd3d0da84dee05a25465f94bd05d535",
        "coverage-with-mc": "e47d73b6e652d3b8a035cae3de4940bd5c63be57325a5c811cac1eb53a2333f3",
        "simulate-full": "4473f2456f8e6a03afe02abda586f14f426a0c01d5cb110cfc1b0c7ab568dc1e",
        "simulate-idle": "ee0e3a168c6a30c307603cb5ca4348f2f4367fd2ee371a101a4e815e45a6d88e",
    }

    @pytest.mark.parametrize("name", list(CSV_PIN_CASES))
    def test_csv_bytes(self, tmp_path, name):
        argv, text = CSV_PIN_CASES[name]
        out = tmp_path / "out.csv"
        assert main([*argv, "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.SHA256[name]


# cells of a random CSV row: floats at the edges of repr, ints, bools, and text with every character the quoting rule knows
CSV_CELLS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308 / 3, 1e-5, 1e16, math.inf, -math.inf, math.nan, 3.0]),
    st.integers(),
    st.booleans(),
    st.text(st.sampled_from([",", '"', "\n", "\r", " ", "a", "0", ".", "é"]), max_size=6),
)
CSV_ROWS = st.lists(st.lists(CSV_CELLS, max_size=5), min_size=1, max_size=8)


def csv_module_text(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def str_cells(row):
    """A row's cells as a runner gives them: numbers by repr, text by the quoting helper."""
    return cli._quoted([c if isinstance(c, str) else repr(c) for c in row])


class TestCsvWriter:
    """The joined-text writer and the quoting helper write what csv.writer(fh, lineterminator="\\n") writes."""

    @settings(max_examples=300, deadline=None)
    @given(rows=CSV_ROWS)
    def test_file_bytes_match_the_csv_module(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            ours, ref = Path(tmp, "ours.csv"), Path(tmp, "ref.csv")
            cli._write_csv(str(ours), str_cells(rows[0]), [str_cells(row) for row in rows[1:]])
            with open(ref, "w", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows(rows)
            assert ours.read_bytes() == ref.read_bytes()

    @settings(max_examples=300, deadline=None)
    @given(rows=CSV_ROWS)
    def test_stdout_text_matches_the_csv_module(self, rows):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli._write_csv(None, str_cells(rows[0]), iter([str_cells(row) for row in rows[1:]]))
        assert buf.getvalue() == csv_module_text(rows)

    @pytest.mark.parametrize("cells, line", [
        ([""], '""'), (["", ""], ","), (["a\rb"], "a\rb"), (['say "hi"'], '"say ""hi"""'),
        (["a,b", "c\nd", " e "], '"a,b","c\nd", e '),
    ])
    def test_quoting_rule(self, cells, line):
        assert ",".join(cli._quoted(cells)) + "\n" == csv_module_text([cells]) == line + "\n"

    def test_rows_beyond_one_chunk(self, tmp_path):
        rows = [[str(i), repr(i / 7)] for i in range(2 * cli._CHUNK + 3)]
        out = tmp_path / "big.csv"
        cli._write_csv(str(out), ["i", "x"], iter(rows))
        assert out.read_text() == csv_module_text([["i", "x"], *rows])


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd=None):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def fileno(self):
        if self.fd is None:
            raise io.UnsupportedOperation("fileno")
        return self.fd


class TestBrokenPipe:
    """A closed stdout pipe ends the run with exit code 141 (128 + SIGPIPE), no traceback and no shutdown noise."""

    def test_in_process(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        assert main(["mgf"]) == 141
        assert capsys.readouterr().err == ""

    def test_stdout_fd_goes_to_devnull(self, monkeypatch):
        r, w = os.pipe()
        os.close(r)
        try:
            monkeypatch.setattr(sys, "stdout", _ClosedPipe(w))
            assert main(["rate"]) == 141
            # the fd now writes to devnull, so the flush at exit cannot fail
            assert os.write(w, b"x") == 1
        finally:
            os.close(w)

    def test_fresh_process_whose_reader_closed(self, tmp_path):
        # about 150 kB of rows, more than a pipe buffer holds, so the write fails however late the close
        path = write_cfg(tmp_path, "[sim]\nn_realizations = 5000\nn_bs_target = 50\n")
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
        proc = subprocess.Popen(
            [sys.executable, "-m", "ppcell.cli", "simulate", "--config", path],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=300) == 141
        assert err == b""
