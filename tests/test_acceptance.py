"""The eight acceptance criteria, one test each, pinned tolerances.

Each test prints its own PASS/FAIL line (visible with pytest -s or -rA)
and then asserts the verdict. Two criteria contain clauses that are
unattainable as stated; docs/calibration.md carries the measurements.
They are left as plain failing tests on purpose: an honest red beats a
gamed green, and weakening the thresholds here would hide the finding.
Everything else must stay green.
"""

import numpy as np
import pytest

import hamsolve.acceptance as acceptance
import hamsolve.engine as engine
import hamsolve.grids as grids
import hamsolve.jets as jets
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


@pytest.mark.parametrize("fault", [None, "s", "A_L"])
def test_criterion_1_sees_a_fault_in_the_engines_set_up(monkeypatch, fault):
    # a 1e-6 relative fault in the engine's sampled s or assembled L, which
    # hpm_recursion's own set-up does not share; criterion 1 runs on fresh
    # problems, so each of its workspaces misses the memo and takes it
    build = engine._problem_set_up

    def faulty_set_up(problem, mode):
        grid, A_L, s_vals, lopt, core_is_L, u0 = build(problem, mode)
        if fault == "s":
            s_vals = s_vals * (1 + 1e-6)
        elif fault == "A_L":
            A_L = A_L * (1 + 1e-6)
            lopt, core_is_L = engine._build_lopt_system(problem, mode, grid, A_L)
            u0 = lopt.solve(np.zeros(grid.n))
        return grid, A_L, s_vals, lopt, core_is_L, u0

    monkeypatch.setattr(engine, "_problem_set_up", faulty_set_up)
    passed, detail = acceptance.criterion_1_equivalence()
    assert passed == (fault is None), detail


def _seed_fault_in_shared_code(monkeypatch, fault):
    """A 1e-6 relative fault in code that the engine and the oracle both
    call: the interior rows of every D_2 a grid hands out, or rows m >= 2
    of every Cauchy product on a jet tape. The set-up memo starts empty,
    and the clean slot comes back afterwards, so no faulty set-up outlives
    the test."""
    monkeypatch.setattr(engine, "_last_set_up", None)
    if fault == "D_2":
        diff_matrix = grids.Grid.diff_matrix

        def faulty_diff_matrix(grid, order):
            D = diff_matrix(grid, order)
            if order == 2:
                D = D.copy()
                D[1:-1] *= 1 + 1e-6
            return D

        monkeypatch.setattr(grids.Grid, "diff_matrix", faulty_diff_matrix)
    elif fault == "Tape.mul":
        mul = jets.Tape.mul

        def faulty_mul(tape, a, b):
            out = mul(tape, a, b)
            row = tape._rows[-1]

            def faulty_row(m):
                row(m)
                if m >= 2:
                    out[m] *= 1 + 1e-6

            tape._rows[-1] = faulty_row
            return out

        monkeypatch.setattr(jets.Tape, "mul", faulty_mul)


@pytest.mark.parametrize("fault", [None, "D_2", "Tape.mul"])
def test_a_fault_in_code_engine_and_oracle_share_fails_a_green_check(monkeypatch, fault):
    # criterion 1 compares a second instance, not second code, so it reads
    # 0 under either fault. What catches each (docs/calibration.md,
    # "Equivalence of the reduced recursion"): the D_2 fault moves criterion
    # 6's poisson clause to 9.992e-7 against 1e-10 (manufactured reads
    # 1.189e-6 against 1e-5); the Tape.mul fault moves criterion 7 to
    # 7.170e-6 against 1e-12. A fault in Tape.exp's rows waits for
    # criterion 7's transcendental trees: no acceptance check reads exp,
    # sin, cos, tanh, log, sqrt or a non-integer power yet (ROADMAP item 20)
    _seed_fault_in_shared_code(monkeypatch, fault)
    _, poisson, manufactured = acceptance.exact_recovery_errors()
    clauses_6, detail_6 = poisson < 1e-10 and manufactured < 1e-5, (poisson, manufactured)
    passed_7, detail_7 = acceptance.criterion_7_jet_oracle()
    assert clauses_6 == (fault != "D_2"), detail_6
    assert passed_7 == (fault != "Tape.mul"), detail_7


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
