import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_block_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library\n\n```python\n(.*?)```", text, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    # the report line the block's last comment shows; CPython 3.12+ sums
    # floats with compensated rounding, which moves the amount's last bits
    head, amount = lines[-1].split("   [")
    assert head == "row 12: a1b1 - a1b2 - a2 + a2b1 + a2b2 - b1 <= 0"
    assert float(amount.rstrip("]")) == pytest.approx(1 / 8)
