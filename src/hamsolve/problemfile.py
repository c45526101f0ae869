"""Plain-text problem files.

A problem file is line-oriented, sectioned text; `#` starts a comment.
docs/problem_files.md documents the format; the short version:

    [domain]
    a = 0
    b = 1
    kind = chebyshev-lobatto    # optional
    n = 64                      # optional

    [operator]
    L = 0, 1                    # derivative coefficients c0, c1, ...
    N = u^2                     # optional nonlinear part, default 0
    s = 1                       # optional source, default 0

    [bcs]
    bc = left, 0, 0.0           # location, derivative order, value

    [ham]                       # optional solver block
    lopt_mode = use-L           # use-L | frechet-at-u0 | user
    hbar = -1.0
    H = 1
    order = 10

    [lopt]                      # required only for lopt_mode = user
    L = 0, 1

    [exact]                     # optional ground truth
    u = tanh(r)

Syntax and value errors raise ParseError anchored to the offending line;
cross-entry problems (wrong BC count and the like) raise ParseError with
the plain message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .errors import ConfigError, ParseError, real_argument
from .expressions import Const, LinearOperator, OperatorExpr, parse_expr
from .grids import BoundaryCondition, checked_grid_kind, checked_grid_size
from .problem import LOPT_MODES, ZERO, HamConfig, ProblemSpec, checked_hbar, checked_order

SECTIONS = ("domain", "operator", "bcs", "ham", "lopt", "exact")

Entry = Tuple[int, str, str]  # line number, key, raw value


@dataclass(frozen=True)
class ParsedProblem:
    problem: ProblemSpec
    config: HamConfig


def parse_problem_file(path) -> ParsedProblem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read problem file {path}: {exc}") from exc
    return parse_problem_text(text)


def parse_problem_text(text: str) -> ParsedProblem:
    sections = _split_sections(text)
    domain = _Section("domain", sections["domain"])
    a = domain.take("a", _domain_end("a"))
    b = domain.take("b", _domain_end("b"))
    kind = domain.take("kind", checked_grid_kind, "chebyshev-lobatto")
    n = domain.take("n", _grid_size, 64)
    domain.finish()

    operator = _Section("operator", sections["operator"])
    L = operator.take("L", _operator)
    N = operator.take("N", parse_expr, ZERO)
    s = operator.take("s", _in_r("source term"), ZERO)
    operator.finish()

    bcs = _read_bcs(sections["bcs"])

    exact_sec = _Section("exact", sections.get("exact", []))
    exact = exact_sec.take("u", _in_r("exact solution"), None)
    exact_sec.finish()

    ham = _Section("ham", sections.get("ham", []))
    lopt_mode = ham.take("lopt_mode", _lopt_mode, "use-L")
    hbar = ham.take("hbar", checked_hbar, -1.0)
    H = ham.take("H", _in_r("H"), Const(1.0))
    order = ham.take("order", _order, 10)
    ham.finish()

    lopt = _Section("lopt", sections.get("lopt", []))
    if lopt_mode == "user":
        if "lopt" not in sections:
            raise ParseError("lopt_mode = user needs an [lopt] section")
        lopt_mode = lopt.take("L", _operator)
    elif "lopt" in sections:
        raise ParseError(
            f"[lopt] section given but lopt_mode is {lopt_mode!r}, not 'user'"
        )
    lopt.finish()

    try:
        problem = ProblemSpec(
            a=a, b=b, L=L, N=N, s=s, bcs=bcs, grid_kind=kind, n=n,
            exact_solution=exact,
        )
        config = HamConfig(lopt_mode=lopt_mode, hbar=hbar, H=H, order=order)
    except ConfigError as exc:
        raise ParseError(str(exc)) from exc
    return ParsedProblem(problem=problem, config=config)


def _split_sections(text: str) -> dict:
    sections: dict = {}
    current: Optional[List[Entry]] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError("unterminated section header", line=lineno)
            name = line[1:-1].strip()
            if name not in SECTIONS:
                raise ParseError(
                    f"unknown section [{name}]; expected one of "
                    + ", ".join(f"[{s}]" for s in SECTIONS),
                    line=lineno,
                )
            if name in sections:
                raise ParseError(f"duplicate section [{name}]", line=lineno)
            current = sections.setdefault(name, [])
            continue
        if "=" not in line:
            raise ParseError("expected 'key = value'", line=lineno)
        if current is None:
            raise ParseError("entry appears before any section header", line=lineno)
        key, value = line.split("=", 1)
        current.append((lineno, key.strip(), value.strip()))
    for required in ("domain", "operator", "bcs"):
        if required not in sections:
            raise ParseError(f"missing required section [{required}]")
    return sections


_REQUIRED = object()


class _Section:
    """One section's entries by key, each taken once and converted."""

    def __init__(self, name: str, entries: List[Entry]):
        self.name = name
        self.entries: dict = {}
        for lineno, key, value in entries:
            if key in self.entries:
                raise ParseError(
                    f"duplicate key {key!r} in [{name}]", line=lineno
                )
            self.entries[key] = (lineno, value)

    def take(self, key: str, convert, default=_REQUIRED):
        """``convert`` of the entry's value, anchored to its line; ``default``
        as given if the key is absent, a ParseError if it has none."""
        if key not in self.entries:
            if default is _REQUIRED:
                raise ParseError(f"[{self.name}] is missing required key {key!r}")
            return default
        lineno, value = self.entries.pop(key)
        return _converted(convert, key, value, lineno)

    def finish(self):
        """ParseError at the first entry no ``take`` asked for."""
        if self.entries:
            key, (lineno, _) = next(iter(self.entries.items()))
            raise ParseError(f"unknown key {key!r} in [{self.name}]", line=lineno)


def _converted(convert, key: str, value: str, line: Optional[int] = None):
    """``convert(value)``, with what it raises turned into a ParseError at
    ``line``: a ParseError keeps its column, a ConfigError its text, and any
    other ValueError says what ``key`` must be."""
    try:
        return convert(value)
    except ParseError as exc:
        raise ParseError(exc.message, line=line, column=exc.column) from exc
    except ConfigError as exc:
        raise ParseError(str(exc), line=line) from exc
    except ValueError as exc:
        what = "an integer" if convert is int else "a number"
        raise ParseError(f"{key} must be {what}, got {value!r}", line=line) from exc


def _domain_end(key: str):
    """The converter for domain end ``key``: a number, and finite."""
    return lambda value: real_argument(_converted(float, key, value), f"domain end {key}")


def _in_r(what: str):
    """The converter for an expression in r alone, ``what`` naming it."""

    def convert(value: str) -> OperatorExpr:
        expr = parse_expr(value)
        if expr.u_order >= 0:
            raise ParseError(f"{what} must be an expression in r only, got {value!r}")
        return expr

    return convert


def _operator(value: str) -> LinearOperator:
    return LinearOperator(tuple(parse_expr(p) for p in _split_top_level(value)))


def _split_top_level(value: str) -> List[str]:
    """Split on commas outside parentheses."""
    parts = []
    depth = 0
    start = 0
    for i, ch in enumerate(value):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError("unbalanced ')'")
        elif ch == "," and depth == 0:
            parts.append(value[start:i].strip())
            start = i + 1
    if depth != 0:
        raise ParseError("unbalanced '('")
    parts.append(value[start:].strip())
    if any(not p for p in parts):
        raise ParseError("empty item in comma-separated list")
    return parts


def _grid_size(value: str) -> int:
    return checked_grid_size(_converted(int, "n", value))


def _order(value: str) -> int:
    return checked_order(_converted(int, "order", value))


def _lopt_mode(value: str) -> str:
    modes = LOPT_MODES + ("user",)
    if value not in modes:
        raise ParseError(f"unknown linear-core mode {value!r}; use one of {', '.join(modes)}")
    return value


def _bc(value: str) -> BoundaryCondition:
    parts = [p.strip() for p in value.split(",")]
    if len(parts) != 3:
        raise ParseError("bc needs exactly 'location, derivative order, value'")
    location, order, bc_value = parts
    return BoundaryCondition(
        location,
        _converted(int, "bc derivative order", order),
        _converted(float, "bc value", bc_value),
    )


def _read_bcs(entries: List[Entry]) -> tuple:
    bcs = []
    for lineno, key, value in entries:
        if key != "bc":
            raise ParseError(
                f"unknown key {key!r} in [bcs]; only 'bc = location, order, "
                "value' lines are allowed",
                line=lineno,
            )
        bcs.append(_converted(_bc, key, value, lineno))
    if not bcs:
        raise ParseError("[bcs] section contains no bc lines")
    return tuple(bcs)
