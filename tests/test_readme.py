"""The Python examples of README.md run and print what they say.

Every ```python block is executed.  Each line that starts with `print(`
carries a trailing `#` comment, and what the call prints must be the
start of that comment.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)


def test_every_readme_example_prints_its_comments():
    blocks = python_blocks()
    assert len(blocks) >= 2
    for block in blocks:
        comments = [line.partition("#")[2].strip()
                    for line in block.splitlines()
                    if line.startswith("print(")]
        printed = []
        exec(block, {"print": lambda *args: printed.append(
            " ".join(map(str, args)))})
        assert comments and len(printed) == len(comments)
        for out, comment in zip(printed, comments):
            assert comment.startswith(out), (out, comment)
