"""The README's Library example runs as written, so the documented API cannot drift."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    text = README.read_text()
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, flags=re.M | re.S))
    assert blocks
    for block in blocks:
        lead = "\n" * text.count("\n", 0, block.start(1))  # tracebacks name README lines
        exec(compile(lead + block[1], str(README), "exec"), {})
