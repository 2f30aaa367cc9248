"""README's library example runs as printed, so a renamed name fails here."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.DOTALL)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("{2: ")
