"""README's "Library use" example runs and prints what its comments promise."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_prints_its_values(capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == [
        "p^3 - 4*p^4 + 6*p^5 - 4*p^6 + p^7", "27/16384", "15/16",
    ]
