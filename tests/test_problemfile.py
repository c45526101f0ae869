"""Problem-file parsing: round trips, defaults, and line-anchored errors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamsolve import (
    BoundaryCondition,
    HamConfig,
    LinearOperator,
    ParseError,
    Workspace,
    eval_expr,
    get_case,
    parse_problem_file,
    parse_problem_text,
)

RICCATI_TEXT = """\
# first-order Riccati problem, solved exactly by tanh(r)
[domain]
a = 0
b = 1

[operator]
L = 0, 1        # u'
N = u^2
s = 1

[bcs]
bc = left, 0, 0.0

[ham]
hbar = -0.5
order = 6

[exact]
u = tanh(r)
"""

MINIMAL_TEXT = """\
[domain]
a = -1
b = 2

[operator]
L = 0, 0, 1

[bcs]
bc = left, 0, 0.0
bc = right, 0, 0.0
"""


def line_of(text: str, needle: str) -> int:
    for i, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return i
    raise AssertionError(f"{needle!r} not in text")


class TestRoundTrip:
    def test_matches_builtin_case(self):
        parsed = parse_problem_text(RICCATI_TEXT)
        builtin = get_case("riccati-tanh-short").spec
        problem = parsed.problem
        assert (problem.a, problem.b) == (builtin.a, builtin.b)
        assert problem.grid_kind == builtin.grid_kind
        assert problem.n == builtin.n
        assert problem.bcs == builtin.bcs
        grid = problem.make_grid()
        r = grid.nodes
        u = np.cos(r)  # arbitrary probe values
        for mine, theirs in zip(problem.L.coeffs, builtin.L.coeffs):
            np.testing.assert_array_equal(
                np.broadcast_to(eval_expr(mine, r), r.shape),
                np.broadcast_to(eval_expr(theirs, r), r.shape),
            )
        np.testing.assert_array_equal(
            eval_expr(problem.N, r, {0: u}), eval_expr(builtin.N, r, {0: u})
        )
        np.testing.assert_array_equal(
            np.broadcast_to(eval_expr(problem.s, r), r.shape),
            np.broadcast_to(eval_expr(builtin.s, r), r.shape),
        )
        np.testing.assert_allclose(
            problem.exact_values(grid), np.tanh(r), atol=1e-15
        )
        assert parsed.config.hbar == -0.5
        assert parsed.config.order == 6
        assert parsed.config.lopt_mode == "use-L"

    def test_parsed_problem_actually_solves(self):
        parsed = parse_problem_text(RICCATI_TEXT)
        ws = Workspace(parsed.problem, parsed.config)
        series = ws.run(hbar=-1.0)
        r = ws.grid.nodes
        np.testing.assert_allclose(series.orders[1], r, atol=1e-12)
        np.testing.assert_allclose(
            series.orders[3], -(r**3) / 3.0, atol=1e-11
        )

    def test_file_and_text_agree(self, tmp_path):
        path = tmp_path / "riccati.prob"
        path.write_text(RICCATI_TEXT, encoding="utf-8")
        from_file = parse_problem_file(path)
        from_text = parse_problem_text(RICCATI_TEXT)
        assert from_file.problem.bcs == from_text.problem.bcs
        assert from_file.config == from_text.config

    def test_missing_file(self, tmp_path):
        missing = tmp_path / "nope.prob"
        with pytest.raises(ParseError) as info:
            parse_problem_file(missing)
        assert "nope.prob" in str(info.value)


class TestDefaults:
    def test_minimal_file_defaults(self):
        parsed = parse_problem_text(MINIMAL_TEXT)
        problem, config = parsed.problem, parsed.config
        assert problem.grid_kind == "chebyshev-lobatto"
        assert problem.n == 64
        assert problem.exact_solution is None
        r = np.array([0.3, 1.7])
        assert np.all(np.broadcast_to(eval_expr(problem.N, r, {0: r}), (2,)) == 0.0)
        assert np.all(np.broadcast_to(eval_expr(problem.s, r), (2,)) == 0.0)
        assert config == HamConfig()
        assert config.hbar == -1.0
        assert config.order == 10

    def test_comments_and_blanks_ignored(self):
        noisy = "\n\n# leading comment\n" + MINIMAL_TEXT.replace(
            "[operator]", "[operator]   # the linear part"
        )
        parsed = parse_problem_text(noisy)
        assert parsed.problem.L.order == 2


class TestUserOperatorSection:
    TEXT = MINIMAL_TEXT + """
[ham]
lopt_mode = user

[lopt]
L = 1, 1, 1
"""

    def test_round_trip(self):
        parsed = parse_problem_text(self.TEXT)
        mode = parsed.config.lopt_mode
        assert isinstance(mode, LinearOperator)
        assert mode.order == 2

    def test_user_mode_requires_section(self):
        text = MINIMAL_TEXT + "\n[ham]\nlopt_mode = user\n"
        with pytest.raises(ParseError, match=r"\[lopt\]"):
            parse_problem_text(text)

    def test_section_requires_user_mode(self):
        text = MINIMAL_TEXT + "\n[lopt]\nL = 0, 0, 1\n"
        with pytest.raises(ParseError, match="lopt_mode"):
            parse_problem_text(text)


class TestLineAnchoredErrors:
    def check(self, text: str, match: str, line: int):
        with pytest.raises(ParseError, match=match) as info:
            parse_problem_text(text)
        assert info.value.line == line

    def test_unknown_section(self):
        text = "[junk]\na = 1\n" + MINIMAL_TEXT
        self.check(text, "unknown section", 1)

    def test_unterminated_header(self):
        text = MINIMAL_TEXT + "\n[exact\n"
        self.check(text, "unterminated", line_of(text, "[exact"))

    def test_duplicate_section(self):
        text = MINIMAL_TEXT + "\n[operator]\nL = 0, 1\n"
        # the error anchors to the repeated header line itself
        self.check(
            text, "duplicate section", len(MINIMAL_TEXT.splitlines()) + 2
        )

    def test_entry_before_any_section(self):
        self.check("a = 0\n" + MINIMAL_TEXT, "before any section", 1)

    def test_line_without_equals(self):
        text = MINIMAL_TEXT.replace("a = -1", "a minus one")
        self.check(text, "key = value", line_of(text, "a minus one"))

    def test_duplicate_key(self):
        text = MINIMAL_TEXT.replace("b = 2", "b = 2\nb = 3")
        self.check(text, "duplicate key", line_of(text, "b = 3"))

    def test_bad_float(self):
        text = MINIMAL_TEXT.replace("a = -1", "a = banana")
        self.check(text, "must be a number", line_of(text, "banana"))

    def test_bad_int(self):
        text = MINIMAL_TEXT.replace("b = 2", "b = 2\nn = 3.5")
        self.check(text, "must be an integer", line_of(text, "n = 3.5"))

    def test_unknown_grid_kind(self):
        text = MINIMAL_TEXT.replace("b = 2", "b = 2\nkind = hexagonal")
        self.check(text, "unknown grid kind", line_of(text, "hexagonal"))

    @pytest.mark.parametrize(
        "section, entry",
        [
            ("operator", "N = 1e300*1e300*u^2"),
            ("operator", "N = u^2*1e300*1e300"),
            ("operator", "N = exp(1000)*u^2"),
            ("operator", "N = (1e200)^2*u^2"),
            ("operator", "s = (1e200)^2"),
            ("operator", "L = 0, 0, 1e300*1e300"),
            ("exact", "u = exp(1000)*r"),
            ("ham", "H = 2 - exp(800)"),
        ],
    )
    def test_constant_past_the_range(self, section, entry):
        # each literal is finite; a NaN series or a bare OverflowError
        # came only from the solve
        if section == "operator":
            lines = entry if entry.startswith("L") else "L = 0, 0, 1\n" + entry
            text = MINIMAL_TEXT.replace("L = 0, 0, 1", lines)
        else:
            text = MINIMAL_TEXT + f"\n[{section}]\n{entry}\n"
        self.check(text, "free of u and r is -?inf", line_of(text, entry))

    def test_constant_factors_within_the_range_solve(self):
        text = RICCATI_TEXT.replace("N = u^2", "N = 1e300*1e-300*u^2")
        parsed = parse_problem_text(text)
        series = Workspace(parsed.problem, parsed.config).run()
        assert np.all(np.isfinite(series.residual_history))
        assert not series.diverged

    def test_bad_expression_keeps_column(self):
        text = MINIMAL_TEXT.replace("L = 0, 0, 1", "L = 0, 0, 1\nN = u^")
        with pytest.raises(ParseError) as info:
            parse_problem_text(text)
        line = line_of(text, "N = u^")
        assert info.value.line == line
        # the column counts from the start of the value, not of the line
        assert info.value.column == 3
        assert str(info.value) == f"line {line}, column 3: exponent must be a numeric literal"

    def test_unknown_key(self):
        text = MINIMAL_TEXT.replace("b = 2", "b = 2\nwidth = 4")
        self.check(text, "unknown key", line_of(text, "width = 4"))

    def test_unknown_key_in_bcs(self):
        text = MINIMAL_TEXT + "boundary = left, 0, 0\n"
        self.check(text, "only 'bc", line_of(text, "boundary"))

    def test_bc_arity(self):
        text = MINIMAL_TEXT.replace("bc = left, 0, 0.0", "bc = left, 0")
        self.check(text, "exactly", line_of(text, "bc = left, 0"))

    def test_bc_location(self):
        text = MINIMAL_TEXT.replace("left", "top")
        self.check(text, "left or right", line_of(text, "top"))

    def test_bc_derivative_order(self):
        text = MINIMAL_TEXT.replace("bc = left, 0, 0.0", "bc = left, half, 0.0")
        self.check(text, "integer", line_of(text, "half"))

    def test_bc_order_too_high_for_L_fails_at_its_line(self):
        # L is read before [bcs], so the bc line itself is reported, with
        # the wording BcSystem and ProblemSpec use
        text = MINIMAL_TEXT.replace("bc = right, 0, 0.0", "bc = right, 2, 0.0")
        line = line_of(text, "bc = right, 2")
        with pytest.raises(ParseError) as info:
            parse_problem_text(text)
        assert info.value.line == line
        assert str(info.value) == (
            f"line {line}: BC derivative order of an order-2 operator must be an integer in 0..1, got 2"
        )

    def test_unbalanced_operator_list(self):
        text = MINIMAL_TEXT.replace("L = 0, 0, 1", "L = (0, 0, 1")
        self.check(text, "unbalanced", line_of(text, "L = (0"))

    def test_negative_order(self):
        text = RICCATI_TEXT.replace("order = 6", "order = -1")
        self.check(text, "integer >= 0, got -1", line_of(text, "order = -1"))

    def test_unknown_lopt_mode(self):
        text = RICCATI_TEXT.replace("order = 6", "order = 6\nlopt_mode = bogus")
        self.check(text, "unknown linear-core mode 'bogus'", line_of(text, "lopt_mode = bogus"))

    def test_empty_list_item(self):
        text = MINIMAL_TEXT.replace("L = 0, 0, 1", "L = 0,, 1")
        self.check(text, "empty item", line_of(text, "L = 0,, 1"))


# RICCATI_TEXT with every key whose value a line-level error can spoil
FULL_TEXT = RICCATI_TEXT.replace(
    "b = 1\n", "b = 1\nkind = chebyshev-lobatto\nn = 32\n"
).replace("order = 6\n", "order = 6\nH = 1\nlopt_mode = use-L\n")

# letters that spell no number, no expression name and no section
words = st.text(alphabet="bcdgjkmpqvwxz", min_size=1, max_size=8)
bad_floats = words | st.sampled_from(["", "1.2.3", "--1", "1e", "0x1"])
bad_ints = words | st.sampled_from(["", "3.5", "1e3", "0x10"])
bad_exprs = words | st.sampled_from(["", "u^", "u^r", "sin(r"]) | st.builds(
    str.format,
    st.sampled_from(["({}", "{})", "{} *", "{} @ 1", "{}^r", "tanh({}"]),
    st.sampled_from(["u^2", "r", "tanh(r)", "1 + r"]),
)
BAD_VALUES = {
    "a": bad_floats,
    "b": bad_floats,
    "hbar": bad_floats,
    "n": bad_ints | st.sampled_from(["7", "0", "-3"]),  # below the minimum of 8
    "order": bad_ints | st.sampled_from(["-1", "-12"]),  # below the minimum of 0
    "lopt_mode": words | st.sampled_from(["bogus", "use-l", "frechet", "User"]),
    "kind": words,
    "N": bad_exprs,
    "s": bad_exprs,
    "H": bad_exprs,
    "u": bad_exprs,
    "L": st.sampled_from(["", "0", "0, , 1", "(0, 1", "0, 1)", "0, u", "0, bcd", "0, 1, 2, 3, 4, 5"]),
    "bc": st.sampled_from(
        ["", "left, 0", "left, 0, 0, 0", "middle, 0, 0", "left, x, 0", "left, 0, x", "left, -1, 0", "left, 0, nan"]
    ),
}
# values that read as a number or an expression but break their entry's
# rule; each fails at its own line, not later in a set-up without one
RULE_BREAKERS = {
    "a": ["nan", "inf", "1e400"],
    "b": ["nan", "inf", "1e400"],
    "hbar": ["nan", "inf", "1e400", "0"],
    "s": ["u", "u'"],
    "H": ["u", "u'"],
    "u": ["u", "u'"],
}
for _key, _values in RULE_BREAKERS.items():
    BAD_VALUES[_key] = BAD_VALUES[_key] | st.sampled_from(_values)


@st.composite
def malformed_texts(draw):
    """FULL_TEXT with one line spoilt, and the number of that line: either
    a stray line inserted anywhere or one entry's value replaced."""
    lines = FULL_TEXT.splitlines()
    if draw(st.booleans()):
        at = draw(st.integers(0, len(lines)))
        stray = st.sampled_from(["{}", "[{}", "[{}]", "zz{} = 1"])
        lines.insert(at, draw(stray).format(draw(words)))
        return "\n".join(lines), at + 1
    entries = [i for i, line in enumerate(lines) if "=" in line and not line.startswith("#")]
    i = draw(st.sampled_from(entries))
    key = lines[i].split("=", 1)[0].strip()
    lines[i] = f"{key} = {draw(BAD_VALUES[key])}"
    return "\n".join(lines), i + 1


def test_full_text_parses():
    assert parse_problem_text(FULL_TEXT).problem.n == 32


@settings(max_examples=300, deadline=None)
@given(case=malformed_texts())
def test_malformed_line_raises_parse_error_at_that_line(case):
    text, lineno = case
    with pytest.raises(ParseError) as info:
        parse_problem_text(text)
    assert info.value.line == lineno


@pytest.mark.parametrize("key, value", [(k, v) for k, values in RULE_BREAKERS.items() for v in values])
def test_rule_breaking_value_fails_at_its_line(key, value):
    lines = FULL_TEXT.splitlines()
    i = next(i for i, line in enumerate(lines) if line.split("=", 1)[0].strip() == key)
    lines[i] = f"{key} = {value}"
    with pytest.raises(ParseError) as info:
        parse_problem_text("\n".join(lines))
    assert info.value.line == i + 1


class TestCrossEntryErrors:
    def test_missing_required_section(self):
        text = "[domain]\na = 0\nb = 1\n\n[operator]\nL = 0, 1\n"
        with pytest.raises(ParseError, match=r"\[bcs\]") as info:
            parse_problem_text(text)
        assert info.value.line is None

    def test_missing_required_key(self):
        text = MINIMAL_TEXT.replace("L = 0, 0, 1", "N = u^2")
        with pytest.raises(ParseError, match="missing required key 'L'"):
            parse_problem_text(text)

    def test_empty_bcs_section(self):
        text = MINIMAL_TEXT.replace("bc = left, 0, 0.0\n", "").replace(
            "bc = right, 0, 0.0\n", ""
        )
        with pytest.raises(ParseError, match="no bc lines"):
            parse_problem_text(text)

    def test_bc_count_mismatch_is_plain(self):
        text = MINIMAL_TEXT.replace("bc = right, 0, 0.0\n", "")
        with pytest.raises(ParseError, match="boundary conditions") as info:
            parse_problem_text(text)
        assert info.value.line is None

    def test_empty_domain_is_plain(self):
        # ProblemSpec checks a < b by the rule build_grid checks by
        text = MINIMAL_TEXT.replace("b = 2", "b = -1")
        with pytest.raises(ParseError, match=r"^domain \[-1\.0, -1\.0\] is empty$") as info:
            parse_problem_text(text)
        assert info.value.line is None

    def test_zero_hbar_rejected(self):
        text = MINIMAL_TEXT + "\n[ham]\nhbar = 0\n"
        with pytest.raises(ParseError, match="hbar"):
            parse_problem_text(text)

    def test_exact_must_be_r_only(self):
        text = MINIMAL_TEXT + "\n[exact]\nu = u + r\n"
        with pytest.raises(ParseError, match="exact solution"):
            parse_problem_text(text)
