"""The package's argument rules: ``errors.integer_argument`` and
``errors.real_argument``, and the sites that must go through them."""

import math
import pathlib
import re

import numpy as np
import pytest

import hamsolve
from hamsolve import (
    BoundaryCondition,
    ConfigError,
    HamConfig,
    RangeError,
    Workspace,
    get_case,
    homotopy_residual,
    scan_hbar,
)
from hamsolve.errors import integer_argument, real_argument
from hamsolve.expressions import Const

POISSON = get_case("linear-poisson").spec


@pytest.mark.parametrize("flag", [True, False, np.True_, np.False_], ids=["True", "False", "np.True_", "np.False_"])
@pytest.mark.parametrize(
    "use",
    [
        lambda flag: HamConfig(hbar=flag),
        lambda flag: BoundaryCondition("left", 0, flag),
        lambda flag: Const(flag),
        lambda flag: scan_hbar(POISSON, HamConfig(), [flag, 2.0]),
        lambda flag: homotopy_residual(Workspace(POISSON, HamConfig()), flag, np.zeros(POISSON.n)),
        lambda flag: real_argument(flag, "x"),
    ],
    ids=["hbar", "bc-value", "constant", "scan-point", "eps", "rule"],
)
def test_a_bool_is_not_a_real_argument(use, flag):
    # float() takes a bool, so each of these ran at 1.0 or 0.0
    with pytest.raises(ConfigError, match="must be a .*finite real"):
        use(flag)


@pytest.mark.parametrize("value", [0, 3, np.int64(4)])
def test_integer_argument_returns_the_value_itself(value):
    assert integer_argument(value, "k", 0, 4) is value


@pytest.mark.parametrize(
    "value, high, message",
    [
        (-1, math.inf, r"^k must be an integer >= 0, got -1$"),
        (5, 4, r"^k must be an integer in 0\.\.4, got 5$"),
        (2.0, 4, r"^k must be an integer in 0\.\.4, got 2\.0$"),
        (True, 4, r"^k must be an integer in 0\.\.4, got True$"),
        ("1", 4, r"^k must be an integer in 0\.\.4, got '1'$"),
    ],
)
def test_integer_argument_names_the_argument_and_its_bounds(value, high, message):
    with pytest.raises(ConfigError, match=message):
        integer_argument(value, "k", 0, high)
    with pytest.raises(RangeError, match=message):
        integer_argument(value, "k", 0, high, RangeError)


def test_no_module_but_errors_tests_for_integers():
    # one rule for integer arguments: every module calls integer_argument.
    # float's is_integer() method is another thing and may be called
    package = pathlib.Path(hamsolve.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name != "errors.py":
            assert not re.search(r"(?<![\w.])is_integer\(", path.read_text(encoding="utf-8")), path.name
