"""The eight acceptance criteria, one test each, pinned tolerances.

Each test prints its own PASS/FAIL line (visible with pytest -s or -rA)
and then asserts the verdict. Two criteria contain clauses that are
unattainable as stated; docs/calibration.md carries the measurements.
They are left as plain failing tests on purpose: an honest red beats a
gamed green, and weakening the thresholds here would hide the finding.
Everything else must stay green.
"""

import pytest

import hamsolve.acceptance as acceptance
from hamsolve.acceptance import (
    CRITERIA,
    criterion_3_continuation,
    criterion_6_exact_recovery,
    criterion_8_determinism,
    run_criteria,
    write_bench_artifacts,
)

_BY_NUMBER = {number: (name, func) for number, name, func in CRITERIA}


def run_criterion(number: int) -> bool:
    name, func = _BY_NUMBER[number]
    passed, detail = func()
    print(f"{'PASS' if passed else 'FAIL'} {number} {name}: {detail}")
    return passed


def test_criteria_are_numbered_one_through_eight():
    assert sorted(_BY_NUMBER) == [1, 2, 3, 4, 5, 6, 7, 8]


def test_criterion_1_reduced_method_equivalence():
    assert run_criterion(1)


def test_criterion_2_embedding_endpoints():
    assert run_criterion(2)


def test_criterion_3_path_tracing():
    assert run_criterion(3)


def test_criterion_4_jacobian_fd_agreement():
    assert run_criterion(4)


def test_criterion_5_convergence_control():
    # known red: the residual bound in the second clause is below what
    # any hbar can reach at this truncation order on the long domain
    # (global minimum 2.26e-2 at order 15 vs required 1e-2; the same
    # tuned hbar does reach it near order 21). Measurements and the
    # engine-correctness cross-checks: docs/calibration.md.
    assert run_criterion(5)


def test_criterion_6_exact_recovery():
    # known red: the first clause asks the order-10 fixed-parameter sum
    # on the short Riccati case for 1e-4 sup error, but that series
    # contracts by only (2/pi)^2 per two orders and sits at 6.307e-3;
    # 1e-4 first appears near order 24. See docs/calibration.md.
    assert run_criterion(6)


def test_criterion_6_green_clauses():
    # the poisson and manufactured clauses, read on their own with the
    # bounds criterion 6 gives them: behind its red first clause the
    # criterion gates neither (ROADMAP item 20)
    _, poisson, manufactured = acceptance.exact_recovery_errors()
    assert poisson < 1e-10
    assert manufactured < 1e-5


def test_criterion_7_jet_oracle():
    assert run_criterion(7)


def test_criterion_8_determinism():
    assert run_criterion(8)


# Set-up counts, not timings: each case is set up once per use and the
# traces, residuals and reports run on that one workspace.


def test_criterion_3_builds_one_workspace_per_case(count_calls):
    # the fine trace, the coarse trace and |F(u(1))| share a workspace
    calls = count_calls("hamsolve.engine", "Workspace.__init__")
    criterion_3_continuation()
    assert len(calls) == 4


def test_criterion_6_builds_one_grid_per_case(count_calls):
    # the error is measured on the grid the series was computed on
    calls = count_calls("hamsolve.grids", "build_grid")
    criterion_6_exact_recovery()
    assert len(calls) == 3


def test_bench_artifacts_build_one_grid_per_case(tmp_path, count_calls):
    # per case: the series workspace (series, solution.csv, the hbar scan
    # and both sides of the equivalence check); the trace's workspace at
    # TRACE_HBAR shares its set-up. builtin_cases() gives fresh problems,
    # so no set-up left by an earlier test is reused
    calls = count_calls("hamsolve.grids", "build_grid")
    write_bench_artifacts(tmp_path)
    assert len(calls) == 4 * 1


def test_a_criterion_that_raises_is_a_fail_line(monkeypatch):
    # one criterion must not sink the rest
    def broken():
        raise RuntimeError("boom")

    monkeypatch.setattr(
        acceptance, "CRITERIA", ((1, "broken", broken), (2, "fine", lambda: (True, "ok")))
    )
    lines = []
    results = run_criteria(echo=lines.append)
    assert lines == ["FAIL 1 broken: raised RuntimeError: boom", "PASS 2 fine: ok"]
    assert [result.passed for result in results] == [False, True]


@pytest.mark.parametrize(
    "second, differing",
    [({"path.csv": "2\n"}, "path.csv"), ({"extra.csv": "1\n"}, "extra.csv")],
    ids=["content", "file-set"],
)
def test_criterion_8_names_the_differing_files(monkeypatch, second, differing):
    runs = []

    def artifacts(outdir):
        files = {"same.csv": "1\n", "path.csv": "1\n"}
        if runs:
            files.update(second)
        runs.append(outdir)
        outdir.mkdir(parents=True)
        for name, text in files.items():
            (outdir / name).write_text(text, encoding="utf-8")

    monkeypatch.setattr(acceptance, "write_bench_artifacts", artifacts)
    assert criterion_8_determinism() == (False, f"differing files: {differing}")
    assert len(runs) == 2
