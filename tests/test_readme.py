"""The README's library quick start runs as printed.

Each ```python block of the "Library quick start" section is executed, and
every line it prints must equal the output its `# ...` comment shows: the
comment on the print's own line, or else the comment line right after it.
"""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def _shown_outputs(block: str) -> list[str]:
    """The output each print line of the block shows in its comment."""
    lines = block.splitlines()
    shown = []
    for k, line in enumerate(lines):
        if not line.startswith("print("):
            continue
        _, hash_, comment = line.partition("  # ")
        if not hash_:
            comment = lines[k + 1].removeprefix("# ")
            assert lines[k + 1].startswith("# "), line
        shown.append(comment.strip())
    return shown


def test_the_quick_start_has_the_three_printed_examples():
    outputs = [_shown_outputs(block) for block in _quick_start_blocks()]
    assert outputs == [
        ["{'0': '0', '1': '3/8i', '2': '0', '3': '0'}",
         "{'0': '0', '1': '0', '2': '1/2'}"],
        ["-2*I*c*hbar"],
    ]


@pytest.mark.parametrize("index", range(len(_quick_start_blocks())))
def test_each_quick_start_block_prints_what_its_comments_show(index):
    block = _quick_start_blocks()[index]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == _shown_outputs(block)
