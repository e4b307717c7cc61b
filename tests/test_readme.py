"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs():
    text = README.read_text()
    match = re.search(r"^## Library quick start\n\n```python\n(.*?)^```$", text,
                      re.MULTILINE | re.DOTALL)
    assert match is not None, "README has no python block under 'Library quick start'"
    exec(compile(match.group(1), str(README), "exec"), {})
