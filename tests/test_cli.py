"""Envelope shape, exit codes, schema conformance, byte determinism."""

import json
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from signsum import InternalCheckError, invariants
from signsum.cli import run


@pytest.fixture(scope="module")
def validator():
    text = resources.files("signsum").joinpath("cli_schema.json").read_text()
    schema = json.loads(text)
    jsonschema.Draft202012Validator.check_schema(schema)
    return jsonschema.Draft202012Validator(schema)


def roundtrip(argv):
    result = run(argv)
    return result, json.loads(result.to_json())


HAPPY = [
    ["compute", "--alpha", "4,6,7,9,11", "--pair", "1,2"],
    ["compute", "--alpha", "4,6,7,9,11", "--pair", "1,2", "--solutions"],
    ["verify", "--alpha", "2,3,4,8"],
    ["closed-form", "--alpha", "2,3,4,8", "--pair", "1,2"],
    ["closed-form", "--alpha", "4,6,7,9,11"],
    ["weights", "--m", "4"],
    ["weights", "--m", "5"],
    ["shorten", "--alpha", "4,6,7,9,11", "--j", "2", "--k", "4", "--sign", "-"],
    [
        "verify-shortening",
        "--alpha",
        "2,3,4,8",
        "--identity",
        "count-split",
        "--indices",
        "3,4,2",
    ],
    [
        "verify-shortening",
        "--alpha",
        "4,6,7,9,11",
        "--identity",
        "signed-odd",
        "--indices",
        "3,5,1",
    ],
    ["integral", "--beta", "2,3,4", "--formula", "result"],
    ["integral", "--beta", "2,3,4,8", "--formula", "result1", "--pair-index", "4"],
    ["integral", "--beta", "2,3,4,8", "--formula", "result"],
    ["approx-beta", "--alpha", "log:2,log:3,log:5"],
    ["approx-beta", "--alpha", "7/2,9/4,5"],
    ["primes", "--n", "5"],
    ["primes", "--n", "6", "--pair", "1,4", "--method", "moebius"],
    ["wall-cross", "--alpha", "1,2,3", "--l", "3", "--pair", "1,2"],
    ["wall-cross", "--alpha", "2,3,4,8", "--l", "3", "--pair", "1,2"],
    ["rademacher", "--i", "3", "--t", "5/16"],
]

FAILING = [
    (["compute", "--alpha", "4;6", "--pair", "1,2"], 2, "parse"),
    (["compute", "--alpha", "2,3,4"], 2, "parse"),
    (["nope"], 2, "parse"),
    ([], 2, "parse"),
    (["compute", "--alpha", "1,2,3", "--pair", "1,2"], 3, "degenerate"),
    (["compute", "--alpha", "2,3,4", "--pair", "1,1"], 3, "precondition"),
    (["weights", "--m", "2"], 3, "precondition"),
    (["integral", "--beta", "2,3,4", "--formula", "result1"], 3, "precondition"),
    (["integral", "--beta", "1,2,3", "--formula", "result"], 3, "degenerate"),
    (["primes", "--n", "25"], 3, "precondition"),
    (
        ["verify-shortening", "--alpha", "2,3,4,8", "--identity", "count-split",
         "--indices", "1,2"],
        2,
        "parse",
    ),
    (["rademacher", "--i", "3", "--t", "x"], 2, "parse"),
]


@pytest.mark.parametrize("argv", HAPPY, ids=lambda a: " ".join(a))
def test_happy_paths_validate(argv, validator):
    result, payload = roundtrip(argv)
    assert result.exit_code == 0
    assert payload["error"] is None
    assert payload["outputs"] is not None
    validator.validate(payload)


@pytest.mark.parametrize("argv,code,kind", FAILING, ids=lambda a: str(a)[:48])
def test_failures_validate(argv, code, kind, validator):
    result, payload = roundtrip(argv)
    assert result.exit_code == code
    assert payload["outputs"] is None
    assert payload["error"]["type"] == kind
    validator.validate(payload)


def test_pinned_compute_outputs():
    _, payload = roundtrip(["compute", "--alpha", "4,6,7,9,11", "--pair", "1,2"])
    assert payload["outputs"] == {"N": -2, "count": 2, "parity": 0}


def test_pinned_verify_outputs():
    _, payload = roundtrip(["verify", "--alpha", "2,3,4,8"])
    out = payload["outputs"]
    assert out["parity_invariant"] is True
    assert out["N_by_max_omitted"] == {"8": 1, "4": -1, "3": -1}


def test_pinned_weights_outputs():
    _, payload = roundtrip(["weights", "--m", "4"])
    assert payload["outputs"]["dimension"] == 0


def test_solutions_materialized():
    _, payload = roundtrip(
        ["compute", "--alpha", "4,6,7,9,11", "--pair", "1,2", "--solutions"]
    )
    assert payload["outputs"]["solutions"] == [[1, -1, 1], [1, 1, -1]]
    assert payload["outputs"]["coordinates"] == [3, 4, 5]


def test_degenerate_includes_witness():
    _, payload = roundtrip(["compute", "--alpha", "1,2,3", "--pair", "1,2"])
    assert payload["error"]["witness"] == [1, 1, -1]


def test_normalized_input_echo():
    _, payload = roundtrip(["compute", "--alpha", "6.25,4/2,7", "--pair", "2,1"])
    assert payload["inputs"]["alpha"] == "25/4,2,7"
    assert payload["inputs"]["pair"] == [1, 2]


def test_internal_error_maps_to_four(monkeypatch, validator):
    def boom(*a, **k):
        raise InternalCheckError("forced failure")

    # the function compute's single scan goes through
    monkeypatch.setattr(invariants, "pair_invariants", boom)
    result, payload = roundtrip(["compute", "--alpha", "2,3,4", "--pair", "1,2"])
    assert result.exit_code == 4
    assert payload["error"] == {"type": "internal", "message": "forced failure"}
    validator.validate(payload)


def test_run_reports_unknown_flag_as_parse_error():
    result, _ = roundtrip(["compute", "--alpha", "2,3,4", "--pair", "1,2", "--zap"])
    assert result.exit_code == 2


# the directory holding the signsum package under test, for child processes
SOURCE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(invariants.__file__)))


def child_env(env_extra=None):
    env = dict(os.environ)
    env.pop("SIGNSUM_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SOURCE_ROOT, env.get("PYTHONPATH")) if p
    )
    if env_extra:
        env.update(env_extra)
    return env


def cli_bytes(argv, env_extra=None):
    proc = subprocess.run(
        [sys.executable, "-m", "signsum", *argv],
        capture_output=True,
        env=child_env(env_extra),
        timeout=120,
    )
    return proc.returncode, proc.stdout


def test_cli_import_skips_mpmath_and_thread_pool():
    """mpmath is imported only by log-realization approx-beta, and no
    thread pool is imported at all."""
    probe = (
        "import sys, signsum.cli; "
        "print([m for m in ('mpmath', 'concurrent.futures') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# 15 odd components keep every signed sum odd, hence generic.  The
# thread-count tests below check that output is byte-identical for any
# SIGNSUM_THREADS value, which is still parsed but no longer used
WIDE = ",".join(str(2 * k + 1) for k in range(15))


def test_stdout_is_one_json_line():
    code, out = cli_bytes(["compute", "--alpha", "2,3,4", "--pair", "1,2"])
    assert code == 0
    assert out.endswith(b"\n") and out.count(b"\n") == 1
    json.loads(out)


def test_byte_determinism_same_invocation():
    argv = ["verify", "--alpha", "4,6,7,9,11"]
    assert cli_bytes(argv) == cli_bytes(argv)


def test_byte_determinism_across_thread_counts():
    argv = ["compute", "--alpha", WIDE, "--pair", "1,2", "--solutions"]
    one = cli_bytes(argv, {"SIGNSUM_THREADS": "1"})
    four = cli_bytes(argv, {"SIGNSUM_THREADS": "4"})
    assert one == four
    assert one[0] == 0


def test_thread_count_matches_serial_result():
    from signsum import PairSelection, rational_vector, signed_count

    vals = [2 * k + 1 for k in range(15)]
    v = rational_vector(vals)
    expected = signed_count(v, PairSelection(1, 2))
    code, out = cli_bytes(
        ["compute", "--alpha", WIDE, "--pair", "1,2"], {"SIGNSUM_THREADS": "4"}
    )
    assert code == 0
    assert json.loads(out)["outputs"]["N"] == expected


def test_error_exit_codes_through_process():
    code, out = cli_bytes(["compute", "--alpha", "1,2,3", "--pair", "1,2"])
    assert code == 3
    payload = json.loads(out)
    assert payload["exit_code"] == 3
