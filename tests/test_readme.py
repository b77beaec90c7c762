import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs_as_commented(capsys):
    code = _library_example()
    # The comments state these results; the run must reproduce them.
    assert "p* = 0.25, 4 episodes expected" in code and '-> "leq"' in code
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["result"].useful_mass == pytest.approx(0.25, abs=1e-9)
    assert namespace["result"].sample_complexity == pytest.approx(4.0, abs=1e-8)
    assert namespace["verdict"].verdict == "leq"
    assert len(capsys.readouterr().out.split()) == 4
