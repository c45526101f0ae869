"""README's library quick start runs, and prints what its comments say.

Each ``print(...)  # value`` line of the python block is checked against the
comment's leading token: a number to the significant digits the comment
gives, anything else as the printed text. A print without a comment is run
but not checked.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
NUMBER = re.compile(r"[-+]?(\d+\.?\d*)(?:[eE][-+]?\d+)?")


def python_block() -> str:
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    return block


def claims(block: str) -> list:
    """The comment's leading token for each print, None where it has none."""
    out = []
    for line in block.splitlines():
        if line.startswith("print("):
            _, _, comment = line.partition("#")
            out.append(comment.split()[0].rstrip(":") if comment.strip() else None)
    return out


def matches(value, claim: str) -> bool:
    number = NUMBER.fullmatch(claim)
    if number is None:
        return str(value) == claim
    digits = len(number.group(1).replace(".", "").lstrip("0"))
    return float(f"{float(value):.{digits - 1}e}") == float(claim)


def test_quick_start_prints_its_comments():
    block = python_block()
    printed = []
    exec(compile(block, str(README), "exec"), {"print": printed.append})
    wanted = claims(block)
    assert len(printed) == len(wanted)
    checked = [(value, claim) for value, claim in zip(printed, wanted) if claim is not None]
    assert [claim for _, claim in checked] == ["2.817e-4", "False", "7.465e-7"]
    for value, claim in checked:
        assert matches(value, claim), (value, claim)


def test_a_stale_comment_is_caught():
    assert matches(2.8171e-4, "2.817e-4")
    assert not matches(2.8181e-4, "2.817e-4")
    assert not matches(True, "False")
