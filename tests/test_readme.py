"""The README's Library snippet runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_snippet_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 1, "README holds one python block, the Library snippet"
    exec(compile(blocks[0], str(README), "exec"), {})
    auc = float(capsys.readouterr().out)
    assert 0.0 <= auc <= 1.0
