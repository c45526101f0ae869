"""End-to-end command-line checks, run in-process through cli.main.

Exit-code contract: 0 success, 1 error (including usage), 2 divergence
warning from solve, 3 continuation abort from trace.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hamsolve.cli import _scan_points, main

ROOT = Path(__file__).resolve().parents[1]

RICCATI_TEXT = """\
[domain]
a = 0
b = 1

[operator]
L = 0, 1
N = u^2
s = 1

[bcs]
bc = left, 0, 0.0
"""


# u'' + u^2 = s with u(0) = 1, u(1) = 2 on 128 nodes: exact 1 + r^2
BOUNDARY_DATA_TEXT = """\
[domain]
a = 0
b = 1
n = 128

[operator]
L = 0, 0, 1
N = u^2
s = 2 + (1 + r^2)^2

[bcs]
bc = left, 0, 1
bc = right, 0, 2

[exact]
u = 1 + r^2
"""

# u'' + exp(u) = 0 with u = 800 at both ends: exp overflows at u_0 itself
OVERFLOWING_TEXT = """\
[domain]
a = 0
b = 1
n = 16

[operator]
L = 0, 0, 1
N = exp(u)

[bcs]
bc = left, 0, 800
bc = right, 0, 800
"""


def read_rows(path):
    header, *rows = path.read_text().splitlines()
    return header.split(","), [line.split(",") for line in rows]


class TestSolve:
    def test_builtin_writes_series_and_solution(self, tmp_path, capsys):
        rc = main(["solve", "builtin:linear-poisson", "--out", str(tmp_path)])
        assert rc == 0
        header, rows = read_rows(tmp_path / "series.csv")
        assert header == ["order", "norm", "residual"]
        assert len(rows) == 11  # default truncation order 10
        header, rows = read_rows(tmp_path / "solution.csv")
        assert header == ["r", "u", "exact", "error"]
        assert len(rows) == 64
        assert max(float(r[3]) for r in rows) < 1e-8
        out = capsys.readouterr().out
        assert "series.csv" in out and "solution.csv" in out

    def test_builds_one_grid(self, tmp_path, count_calls, capsys):
        # counts, not timings: solution.csv is written on the solve's grid
        calls = count_calls("hamsolve.grids", "build_grid")
        rc = main(["solve", "builtin:linear-poisson", "--out", str(tmp_path)])
        assert rc == 0
        assert len(calls) == 1
        capsys.readouterr()

    def test_divergent_series_exits_two(self, tmp_path, capsys):
        rc = main(
            [
                "solve", "builtin:riccati-tanh-long",
                "--hbar", "-1", "--order", "15", "--out", str(tmp_path),
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err == (
            "warning: series looks divergent at hbar=-1: per-order norms grew "
            "for 3 consecutive orders or an order is not finite\n"
        )
        assert (tmp_path / "series.csv").exists()

    def test_overflowing_series_exits_two(self, tmp_path, capsys):
        # norms 0, 1e300, then nan: the flag is set, not skipped
        rc = main(
            [
                "solve", "builtin:riccati-tanh-short",
                "--H", "1e300", "--out", str(tmp_path),
            ]
        )
        assert rc == 2
        assert "divergent" in capsys.readouterr().err

    def test_problem_file_without_exact_leaves_columns_empty(
        self, tmp_path, capsys
    ):
        prob = tmp_path / "riccati.prob"
        prob.write_text(RICCATI_TEXT, encoding="utf-8")
        rc = main(["solve", str(prob), "--out", str(tmp_path)])
        assert rc == 0
        _, rows = read_rows(tmp_path / "solution.csv")
        assert all(row[2] == "" and row[3] == "" for row in rows)

    def test_constant_exact_solution_fills_error_columns(self, tmp_path, capsys):
        # u(0) = 1 makes u = 1 the exact solution: a constant [exact] entry
        prob = tmp_path / "riccati-one.prob"
        text = RICCATI_TEXT.replace("bc = left, 0, 0.0", "bc = left, 0, 1.0")
        prob.write_text(text + "\n[exact]\nu = 1\n", encoding="utf-8")
        rc = main(["solve", str(prob), "--out", str(tmp_path)])
        assert rc == 0
        _, rows = read_rows(tmp_path / "solution.csv")
        assert len(rows) == 64
        assert all(row[2] == "1" for row in rows)
        assert max(float(row[3]) for row in rows) < 1e-12
        capsys.readouterr()

    def test_boundary_data_on_a_fine_grid(self, tmp_path, capsys):
        prob = tmp_path / "boundary-data.prob"
        prob.write_text(BOUNDARY_DATA_TEXT, encoding="utf-8")
        rc = main(["solve", str(prob), "--out", str(tmp_path)])
        assert rc == 0
        _, rows = read_rows(tmp_path / "solution.csv")
        assert len(rows) == 128
        # 1.70e-6 measured at hbar = -1, M = 10 (docs/calibration.md)
        assert max(float(row[3]) for row in rows) < 1e-5
        capsys.readouterr()

    def test_grid_override(self, tmp_path):
        rc = main(
            [
                "solve", "builtin:riccati-tanh-short",
                "--grid-n", "80", "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        _, rows = read_rows(tmp_path / "solution.csv")
        assert len(rows) == 80

    def test_lopt_and_weight_overrides(self, tmp_path):
        rc = main(
            [
                "solve", "builtin:riccati-tanh-short",
                "--lopt", "frechet", "--H", "1 + r/2",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0

    def test_lopt_flag_overrides_the_file_core(self, tmp_path):
        # --lopt use-L beats a file's frechet-at-u0 core: the run is the
        # file's with no [ham] block, and not the file's own
        core = tmp_path / "frechet.prob"
        core.write_text(BOUNDARY_DATA_TEXT + "\n[ham]\nlopt_mode = frechet-at-u0\n", encoding="utf-8")
        plain = tmp_path / "plain.prob"
        plain.write_text(BOUNDARY_DATA_TEXT, encoding="utf-8")
        series = {}
        for name, prob, extra in (
            ("flag", core, ("--lopt", "use-L")), ("file", core, ()), ("plain", plain, ()),
        ):
            out = tmp_path / name
            assert main(["solve", str(prob), "--grid-n", "32", *extra, "--out", str(out)]) == 0
            series[name] = (out / "series.csv").read_bytes()
        assert series["flag"] == series["plain"]
        assert series["file"] != series["plain"]

    def test_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["solve", "builtin:manufactured-quad", "--order", "8"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        for name in ("series.csv", "solution.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestUsageAndErrors:
    def test_missing_problem_file_names_it(self, tmp_path, capsys):
        rc = main(["solve", str(tmp_path / "ghost.prob")])
        assert rc == 1
        assert "ghost.prob" in capsys.readouterr().err

    def test_unknown_builtin_lists_available(self, capsys):
        rc = main(["solve", "builtin:nope"])
        assert rc == 1
        assert "linear-poisson" in capsys.readouterr().err

    def test_no_source(self, capsys):
        assert main(["solve"]) == 1
        assert "required: PROBLEM" in capsys.readouterr().err

    def test_usage_errors_are_exit_one(self, capsys):
        assert main([]) == 1
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_overflowing_jacobian_is_a_typed_failure(self, tmp_path, capsys):
        # no raw numpy warning (an error in this suite) before the outcome
        prob = tmp_path / "overflowing.prob"
        prob.write_text(OVERFLOWING_TEXT, encoding="utf-8")
        assert main(["trace", str(prob), "--out", str(tmp_path)]) == 3
        capsys.readouterr()
        rc = main(["solve", str(prob), "--lopt", "frechet", "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == "error: BC-modified system has non-finite entries\n"

    def test_help_is_exit_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "solve" in capsys.readouterr().out

    def test_module_entry_point(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "hamsolve.cli", "--help"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: hamsolve")

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("hscan", "--hbar", "0"),  # the scan sweeps --range instead
            ("trace", "--order", "5"),  # a trace runs no series
            ("hpm-check", "--lopt", "use-L"),  # the check fixes L_opt = L
            ("hpm-check", "--H", "1 + r"),  # and H = 1
        ],
    )
    def test_flags_a_command_does_not_read_are_rejected(self, command, flag, value, tmp_path, capsys):
        rc = main([command, "builtin:linear-poisson", flag, value, "--out", str(tmp_path)])
        assert rc == 1
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_zero_hbar_rejected(self, capsys):
        rc = main(["solve", "builtin:linear-poisson", "--hbar", "0"])
        assert rc == 1
        assert "hbar" in capsys.readouterr().err


class TestHscan:
    def test_curve_has_requested_points(self, tmp_path, capsys):
        rc = main(
            [
                "hscan", "builtin:riccati-tanh-short",
                "--order", "6", "--points", "9",
                "--range", "-1.8", "-0.2", "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        header, rows = read_rows(tmp_path / "hbar_curve.csv")
        assert header == ["hbar", "residual", "diverged", "probe"]
        assert len(rows) == 9
        assert "min residual" in capsys.readouterr().out

    def test_hscan_without_a_finite_residual_exits_two(self, tmp_path, capsys):
        rc = main(
            [
                "hscan", "builtin:riccati-tanh-short",
                "--H", "1e300", "--out", str(tmp_path),
            ]
        )
        assert rc == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "no hbar gave a finite residual" in err
        _, rows = read_rows(tmp_path / "hbar_curve.csv")
        assert len(rows) == 17
        assert all(row[1] == "nan" for row in rows)

    def test_straddling_range_skips_zero(self, tmp_path):
        rc = main(
            [
                "hscan", "builtin:linear-poisson",
                "--order", "2", "--points", "8",
                "--range", "-1", "1", "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        _, rows = read_rows(tmp_path / "hbar_curve.csv")
        hbars = [float(r[0]) for r in rows]
        assert len(hbars) == 8
        assert all(h != 0.0 for h in hbars)
        assert any(h < 0 for h in hbars) and any(h > 0 for h in hbars)

    @pytest.mark.parametrize(
        "lo,hi", [(-0.0005, 0.0), (0.0, 0.0004), (-0.0005, 0.0004)]
    )
    def test_range_within_split_margin_of_zero_is_rejected(
        self, lo, hi, tmp_path, capsys
    ):
        rc = main(
            [
                "hscan", "builtin:linear-poisson", "--order", "2",
                "--range", str(lo), str(hi), "--out", str(tmp_path),
            ]
        )
        assert rc == 1
        assert "hbar ~ 0" in capsys.readouterr().err
        assert not (tmp_path / "hbar_curve.csv").exists()

    @pytest.mark.parametrize(
        "lo,hi",
        [(-2.0, -0.1), (-1.0, 1.0), (-1.0, 0.0), (0.0, 1.0), (-1.0, 0.0005),
         (-0.0005, 1.0)],
    )
    def test_points_stay_inside_the_range(self, lo, hi):
        pts = _scan_points(lo, hi, 9)
        assert len(pts) == 9
        assert np.all((lo <= pts) & (pts <= hi))
        assert np.all(pts != 0.0)
        assert np.all(np.diff(pts) > 0)

    def test_unchanged_points_away_from_zero(self):
        np.testing.assert_array_equal(
            _scan_points(-2.0, -0.1, 17), np.linspace(-2.0, -0.1, 17)
        )
        np.testing.assert_array_equal(
            _scan_points(-1.0, 1.0, 8),
            np.concatenate(
                [np.linspace(-1.0, -1e-3, 4), np.linspace(1e-3, 1.0, 4)]
            ),
        )

    def test_bad_scan_arguments(self, capsys):
        assert main(
            ["hscan", "builtin:linear-poisson", "--points", "1"]
        ) == 1
        assert main(
            ["hscan", "builtin:linear-poisson", "--range", "-0.5", "-0.5"]
        ) == 1
        capsys.readouterr()


class TestTrace:
    def test_healthy_default_is_positive_hbar(self, tmp_path, capsys):
        rc = main(
            ["trace", "builtin:manufactured-quad", "--out", str(tmp_path)]
        )
        assert rc == 0
        header, rows = read_rows(tmp_path / "path.csv")
        assert header == [
            "eps", "newton_iters", "jac_condition", "residual_inf", "u_at_probe",
        ]
        assert float(rows[0][0]) == 0.0
        assert float(rows[-1][0]) == 1.0
        assert "reached eps=1" in capsys.readouterr().out

    def test_builds_one_workspace(self, tmp_path, count_calls, capsys):
        # counts, not timings: path.csv comes from the traced steps, not
        # from a second workspace that re-evaluates them
        calls = count_calls("hamsolve.engine", "Workspace.__init__")
        rc = main(
            ["trace", "builtin:manufactured-quad", "--out", str(tmp_path)]
        )
        assert rc == 0
        assert len(calls) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "extra,code", [((), 0), (("--hbar", "-1"), 3)], ids=["reached", "aborted"]
    )
    def test_builds_one_grid(self, extra, code, tmp_path, count_calls, capsys):
        # path.csv interpolates on the traced workspace's grid, also for
        # the partial path of an aborted trace
        calls = count_calls("hamsolve.grids", "build_grid")
        rc = main(
            ["trace", "builtin:manufactured-quad", *extra, "--out", str(tmp_path)]
        )
        assert rc == code
        assert (tmp_path / "path.csv").exists()
        assert len(calls) == 1
        capsys.readouterr()

    def test_abort_exits_three_with_partial_csv(self, tmp_path, capsys):
        rc = main(
            [
                "trace", "builtin:manufactured-quad",
                "--hbar", "-1", "--out", str(tmp_path),
            ]
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert "partial path" in err
        _, rows = read_rows(tmp_path / "path.csv")
        assert 0.0 < float(rows[-1][0]) < 1.0

    def test_file_hbar_is_not_read(self, tmp_path, capsys):
        # the file's hbar has the series' sign and the tracer's hbar = h is
        # the series' -h, so the tracer keeps its own default unless --hbar
        prob = tmp_path / "riccati.prob"
        prob.write_text(RICCATI_TEXT + "\n[ham]\nhbar = 0.5\n", encoding="utf-8")
        paths = {}
        for name, extra in (("file", ()), ("default", ("--hbar", "1")), ("flag", ("--hbar", "0.5"))):
            out = tmp_path / name
            assert main(["trace", str(prob), *extra, "--out", str(out)]) == 0
            paths[name] = (out / "path.csv").read_bytes()
        assert paths["file"] == paths["default"]
        assert paths["flag"] != paths["file"]
        capsys.readouterr()

    def test_help_says_the_file_hbar_is_not_read(self, capsys):
        assert main(["trace", "--help"]) == 0
        assert "[ham] hbar is not read" in " ".join(capsys.readouterr().out.split())

    def test_step_count_flag(self, tmp_path):
        rc = main(
            [
                "trace", "builtin:linear-poisson",
                "--steps", "8", "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        _, rows = read_rows(tmp_path / "path.csv")
        assert len(rows) == 9


class TestHpmCheck:
    def test_agreement_exits_zero(self, tmp_path, capsys):
        rc = main(
            ["hpm-check", "builtin:riccati-tanh-short", "--out", str(tmp_path)]
        )
        assert rc == 0
        report = json.loads((tmp_path / "equivalence.json").read_text())
        assert report["pass"] is True
        assert report["max_rel_diff"] == 0.0
        assert len(report["per_order_rel_diff"]) == 11
        assert "pass" in capsys.readouterr().out

    def test_mutated_hbar_exits_one(self, tmp_path, capsys):
        rc = main(
            [
                "hpm-check", "builtin:riccati-tanh-short",
                "--hbar", "-1.01", "--out", str(tmp_path),
            ]
        )
        assert rc == 1
        report = json.loads((tmp_path / "equivalence.json").read_text())
        assert report["pass"] is False
        assert "FAIL" in capsys.readouterr().out


    def test_infinite_tolerance_exits_one(self, tmp_path, capsys):
        rc = main(
            [
                "hpm-check", "builtin:riccati-tanh-short",
                "--tol", "inf", "--out", str(tmp_path),
            ]
        )
        assert rc == 1
        assert "tolerance" in capsys.readouterr().err
        assert not (tmp_path / "equivalence.json").exists()


class TestOutputDirectory:
    def test_flag_beats_environment(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "env"
        flag_dir = tmp_path / "flag"
        monkeypatch.setenv("HAMSOLVE_OUT", str(env_dir))
        rc = main(
            ["solve", "builtin:linear-poisson", "--out", str(flag_dir)]
        )
        assert rc == 0
        assert (flag_dir / "series.csv").exists()
        assert not env_dir.exists()

    def test_environment_fallback(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "env"
        monkeypatch.setenv("HAMSOLVE_OUT", str(env_dir))
        assert main(["solve", "builtin:linear-poisson"]) == 0
        assert (env_dir / "series.csv").exists()

    def test_default_is_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.delenv("HAMSOLVE_OUT", raising=False)
        monkeypatch.chdir(tmp_path)
        assert main(["solve", "builtin:linear-poisson"]) == 0
        assert (tmp_path / "series.csv").exists()


class TestBench:
    def test_artifacts_and_honest_summary(self, tmp_path, capsys, monkeypatch):
        # two acceptance clauses are known-unattainable as stated (see
        # docs/calibration.md), so bench must report failure honestly.
        # Condition numbers come from LU factorizations, never from the
        # dense inverse that numpy's cond forms.
        def forbidden(*args, **kwargs):
            raise AssertionError("dense inverse formed")

        monkeypatch.setattr(np.linalg, "cond", forbidden)
        rc = main(["bench", "--out", str(tmp_path)])
        assert rc == 1
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["pass"] is False
        assert len(summary["criteria"]) == 8
        failing = {c["number"] for c in summary["criteria"] if not c["pass"]}
        assert failing == {5, 6}
        for case_id in (
            "linear-poisson", "riccati-tanh-short",
            "riccati-tanh-long", "manufactured-quad",
        ):
            case_dir = tmp_path / case_id
            for name in (
                "series.csv", "solution.csv", "hbar_curve.csv",
                "path.csv", "equivalence.json",
            ):
                assert (case_dir / name).exists()
        out = capsys.readouterr().out
        assert out.count("PASS") == 6
        assert out.count("FAIL") == 2
