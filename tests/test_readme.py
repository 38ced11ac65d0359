"""Every python code block of README.md runs as written, so an example
that falls behind the package's API fails the suite."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    text = README.read_text()
    blocks = list(re.finditer(r"^```python\n(.*?)^```", text, re.M | re.S))
    assert blocks
    for block in blocks:
        # pad with the lines above the block, so a traceback points at
        # the README's own line
        lines_above = text.count("\n", 0, block.start(1))
        code = "\n" * lines_above + block.group(1)
        exec(compile(code, str(README), "exec"), {"__name__": "readme"})
