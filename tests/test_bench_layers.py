"""The layer bench in tools/bench_layers.py, run small."""

import importlib.util
import json
import re
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_layers.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_layers", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_small_run_writes_the_schema(tmp_path):
    tool = _tool()
    record = tool.bench(sizes=(6, 10), runs=5)
    path = tool.write(record, tmp_path)
    assert re.fullmatch(r"BENCH_([0-9a-f]{7,}(-dirty)?|nogit-dirty)\.json", path.name)
    assert json.loads(path.read_text()) == record
    assert set(record) == {"sha", "dirty", "python", "cpu_count", "runs", "layers"}
    assert path.name == f"BENCH_{record['sha']}{'-dirty' * record['dirty']}.json"
    assert record["runs"] == 5
    assert isinstance(record["cpu_count"], int) and record["cpu_count"] >= 1
    assert re.fullmatch(r"\d+\.\d+\.\d+\S*", record["python"])
    assert tool.LAYERS == (
        "table_build",
        "survey",
        "moments",
        "pair_scan",
        "anchor_scans",
        "closed_form",
        "verify",
    )
    assert [(r["m"], r["input"], r["layer"]) for r in record["layers"]] == [
        (m, kind, layer)
        for m in (6, 10)
        for kind in ("plain", "log")
        for layer in tool.LAYERS
    ]
    for row in record["layers"]:
        assert set(row) == {"layer", "input", "m", "median_s", "iqr_s"}
        assert row["median_s"] > 0 and row["iqr_s"] >= 0


@pytest.mark.parametrize(
    "failure",
    [OSError("no git"), subprocess.CalledProcessError(128, ["git", "rev-parse"])],
    ids=["git-missing", "not-a-checkout"],
)
def test_revision_outside_a_checkout_is_nogit_dirty(monkeypatch, tmp_path, failure):
    tool = _tool()

    def fail(*args, **kwargs):
        raise failure

    monkeypatch.setattr(tool.subprocess, "run", fail)
    assert tool.revision() == ("nogit", True)
    record = {"sha": "nogit", "dirty": True}
    assert tool.write(record, tmp_path).name == "BENCH_nogit-dirty.json"


def test_plain_inputs_are_seeded_nine_digit_and_generic():
    from signsum import check_generic, rational_vector

    tool = _tool()
    values = tool.plain_values(12)
    assert values == tool.plain_values(12)
    assert all(10**8 <= v < 10**9 for v in values)
    assert check_generic(rational_vector(values)).generic
    assert tool.first_primes(6) == [2, 3, 5, 7, 11, 13]
