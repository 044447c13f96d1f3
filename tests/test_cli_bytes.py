"""The output fingerprint script in tools/cli_bytes.py."""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from signsum.cli import run

from test_cli import FAILING, HAPPY

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_bytes.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("cli_bytes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_suite_argvs_are_the_cli_tests_lists(tool):
    argvs = tool.suite_argvs()
    assert [argv for _, argv in argvs] == HAPPY + [entry[0] for entry in FAILING]
    assert argvs[0][0] == "HAPPY[0]" and argvs[-1][0] == f"FAILING[{len(FAILING) - 1}]"


@pytest.mark.parametrize("argv", [HAPPY[0], HAPPY[1], FAILING[4][0], []])
def test_fingerprint_hashes_what_main_writes(tool, argv):
    result = run(argv)
    stderr = "" if result.error is None else result.error["message"] + "\n"
    assert tool.fingerprint(argv) == (
        result.exit_code,
        _sha(result.to_json() + "\n"),
        _sha(stderr),
    )


def test_one_line_per_request(tool, capsys, monkeypatch):
    pytest.importorskip("numpy")
    pytest.importorskip("mpmath")
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert tool.main(["1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    workload = tool.workload_argvs([1])
    assert len(lines) == len(tool.suite_argvs()) + len(workload)
    assert {line.split()[0].split("[")[0] for line in lines} >= {
        "HAPPY", "FAILING", "scans/1", "forms-weights/1"
    }
    for line in lines:
        label, code, out, err = line.split()
        assert code in {"0", "2", "3"} and len(out) == len(err) == 64


def test_rejects_a_seed_that_is_no_integer(tool, capsys):
    assert tool.main(["x"]) == 2
    assert "usage" in capsys.readouterr().err
