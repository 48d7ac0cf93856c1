"""The README's library example imports only names the package exports."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_entry_points_block_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1, "README should hold exactly one python block"
    exec(compile(blocks[0], str(README), "exec"), {})
