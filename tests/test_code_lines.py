"""The code-only line counter in tools/code_lines.py."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "code_lines.py"

# ceiling on the code-only lines of src/signsum (tools/code_lines.py)
PACKAGE_LINES = 1823

# 6 code-only lines: the docstrings, comments and blank lines are left
# out, and the two lines of the bracketed call both count
FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment


class Box:
    """Class docstring."""

    size = 3


def area(box):
    """Function docstring."""
    # a comment line
    return max(
        box.size, 0)
'''


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_of_a_fixture(tmp_path, capsys):
    tool = _tool()
    assert tool.code_lines(FIXTURE) == 6
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# end\n")
    assert tool.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["6", "1", "7"]
    assert lines[-1].split()[1] == "total"


def test_missing_path_or_option_exits_two(tmp_path, capsys):
    tool = _tool()
    for argv in ([str(tmp_path / "absent.py")], ["--help"], [str(tmp_path), "-h"]):
        assert tool.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("usage: ")


def test_package_stays_within_its_line_budget():
    tool = _tool()
    total = sum(
        tool.code_lines(path.read_text(encoding="utf-8"))
        for path in (ROOT / "src" / "signsum").glob("*.py")
    )
    assert total <= PACKAGE_LINES
