"""The README's library example runs and prints what it says it prints."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    library = text[text.index("## Library") :]
    example = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, str(README), "exec"), {})
    assert out.getvalue().splitlines()[0] == "BitVector(coords=(1, 1, 0, 1))"
