"""The package's export list, and the code-line count that simplicity
claims quote (``tools/code_lines.py``)."""

import importlib.util
import inspect
from pathlib import Path

import biaslab

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def test_all_lists_each_public_binding_once():
    names = biaslab.__all__
    assert len(set(names)) == len(names)
    public = {name for name, value in vars(biaslab).items() if not name.startswith("_") and not inspect.ismodule(value)}
    assert set(names) == public | {"errors"}


# Six code lines: the import with its trailing comment, both lines of a
# string that is not a docstring, the def line and the two lines of the
# split return statement.
SAMPLE = '''"""A module docstring,
over two lines."""

import math  # a trailing comment

NOTE = """a string over
two lines"""


# A comment on its own line.
def area(r):
    """Area of a circle of radius r.

    A function docstring over several lines.
    """

    return (math.pi
            * r * r)
'''


def test_code_lines_counts_only_code(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    module = tmp_path / "sample.py"
    module.write_text(SAMPLE, encoding="utf-8")
    assert tool.code_lines(module) == 6
    tool.main([str(tmp_path)])
    assert capsys.readouterr().out.splitlines()[-2:] == ["| `sample` | 6 |", "| total | 6 |"]
