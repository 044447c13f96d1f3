"""Envelope shape, exit codes, schema conformance, byte determinism."""

import json
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from signsum import InternalCheckError, invariants
from signsum.cli import run

from conftest import child_env


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
    (
        ["integral", "--beta", "1000003,1000033,1000037", "--formula", "result",
         "--quadrature"],
        3,
        "precondition",
    ),
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


@pytest.fixture
def integrand_calls(monkeypatch):
    """The points at which the quadrature evaluates its integrand."""
    from signsum import trig

    calls = []
    build = trig._build_integrand

    def counting(sin_freqs, cos_freqs):
        f = build(sin_freqs, cos_freqs)
        return lambda x: calls.append(x) or f(x)

    monkeypatch.setattr(trig, "_build_integrand", counting)
    return calls


def test_quadrature_budget_refused_before_any_evaluation(integrand_calls):
    # sum(beta) + 1 = 3,000,074 nodes, just over the budget
    _, payload = roundtrip(
        ["integral", "--beta", "1000003,1000033,1000037", "--formula", "result",
         "--quadrature"]
    )
    assert payload["exit_code"] == 3
    assert "3,000,000-evaluation budget" in payload["error"]["message"]
    assert integrand_calls == []


@pytest.mark.parametrize(
    "argv",
    [
        ["--beta", "2,3,4", "--formula", "result"],
        ["--beta", "2,3,4,8", "--formula", "result"],
        ["--beta", "2,3,4,8", "--formula", "result1", "--pair-index", "4"],
        ["--beta", "2,3,4,8", "--formula", "result2", "--pair-index", "1"],
        ["--beta", "5003,5009,5011", "--formula", "result"],
    ],
    ids=lambda a: " ".join(a),
)
def test_quadrature_evaluates_sum_plus_one_nodes(argv, integrand_calls):
    _, payload = roundtrip(["integral", *argv, "--quadrature"])
    assert payload["exit_code"] == 0
    assert payload["outputs"]["agree"] is True
    beta = [int(b) for b in argv[1].split(",")]
    assert len(integrand_calls) == sum(beta) + 1


def test_quadrature_request_builds_two_tables(monkeypatch):
    # one for integer_beta's survey, one for the exact value it checks
    from signsum import _halves

    built = []
    init = _halves.HalfTables.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(_halves.HalfTables, "__init__", counting)
    _, payload = roundtrip(
        ["integral", "--beta", "2,3,4,8", "--formula", "result", "--quadrature"]
    )
    assert payload["exit_code"] == 0 and payload["outputs"]["agree"] is True
    assert len(built) == 2


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


def cli_bytes(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "signsum", *argv],
        capture_output=True,
        env=child_env(),
        timeout=120,
    )
    return proc.returncode, proc.stdout


# modules that only some subcommands run
OPERATION_MODULES = ("invariants", "trig", "weights", "shortening", "primes")


def test_cli_import_skips_mpmath_and_thread_pool():
    """mpmath is imported only by log-realization approx-beta, no thread
    pool is imported at all, and no operation module is imported before a
    subcommand runs it."""
    unwanted = ("mpmath", "concurrent.futures") + tuple(
        f"signsum.{name}" for name in OPERATION_MODULES
    )
    probe = (
        "import sys, signsum.cli; "
        f"print([m for m in {unwanted!r} if m in sys.modules])"
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


# Runs ``python -m signsum ARG...`` in this process and, at exit, writes
# to stderr as the last line the loaded signsum modules and which of
# ``dataclasses`` and ``inspect`` (with its ast, dis and tokenize) got
# loaded, which no subcommand needs.
MODULE_PROBE = """
import atexit, json, runpy, sys
atexit.register(lambda: sys.stderr.write("\\n" + json.dumps([sorted(
    m for m in sys.modules if m == "signsum" or m.startswith("signsum.")),
    [m for m in ("dataclasses", "inspect", "mpmath") if m in sys.modules]])))
runpy.run_module("signsum", run_name="__main__", alter_sys=True)
"""

ALWAYS_LOADED = {"signsum", "signsum.cli", "signsum.core", "signsum._halves"}

# one request per subcommand and the operation modules it runs
COLD_REQUESTS = [
    (["compute", "--alpha", "4,6,7,9,11", "--pair", "1,2", "--solutions"],
     {"invariants"}),
    (["verify", "--alpha", "2,3,4,8"], {"invariants"}),
    (["closed-form", "--alpha", "2,3,4,8", "--pair", "1,2"], {"invariants"}),
    (["weights", "--m", "5"], {"weights"}),
    (["shorten", "--alpha", "4,6,7,9,11", "--j", "2", "--k", "4", "--sign", "-"],
     {"shortening"}),
    (["verify-shortening", "--alpha", "2,3,4,8", "--identity", "count-split",
      "--indices", "3,4,2"], {"shortening", "invariants"}),
    (["integral", "--beta", "2,3,4,8", "--formula", "result"], {"trig"}),
    (["approx-beta", "--alpha", "7/2,9/4,5"], {"trig"}),
    (["primes", "--n", "5"], {"primes", "invariants"}),
    (["wall-cross", "--alpha", "2,3,4,8", "--l", "3", "--pair", "1,2"],
     {"invariants"}),
    (["rademacher", "--i", "3", "--t", "5/16"], {"trig"}),
]


def test_cold_requests_cover_every_subcommand():
    from signsum.cli import _HANDLERS

    assert sorted(argv[0] for argv, _ in COLD_REQUESTS) == sorted(_HANDLERS)


@pytest.mark.parametrize(
    "argv,operations", COLD_REQUESTS, ids=[argv[0] for argv, _ in COLD_REQUESTS]
)
def test_cold_process_loads_only_its_modules(argv, operations):
    proc = subprocess.run(
        [sys.executable, "-c", MODULE_PROBE, *argv],
        capture_output=True,
        env=child_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (run(argv).to_json() + "\n").encode()
    loaded, heavy = json.loads(proc.stderr.decode().rsplit("\n", 1)[1])
    assert set(loaded) == ALWAYS_LOADED | {f"signsum.{name}" for name in operations}
    assert heavy == []


# 15 odd components keep every signed sum odd, hence generic
WIDE = ",".join(str(2 * k + 1) for k in range(15))


def test_stdout_is_one_json_line():
    code, out = cli_bytes(["compute", "--alpha", "2,3,4", "--pair", "1,2"])
    assert code == 0
    assert out.endswith(b"\n") and out.count(b"\n") == 1
    json.loads(out)


def test_byte_determinism_same_invocation():
    argv = ["verify", "--alpha", "4,6,7,9,11"]
    assert cli_bytes(argv) == cli_bytes(argv)


def test_cli_matches_library_result():
    from signsum import PairSelection, rational_vector, signed_count

    vals = [2 * k + 1 for k in range(15)]
    v = rational_vector(vals)
    expected = signed_count(v, PairSelection(1, 2))
    code, out = cli_bytes(["compute", "--alpha", WIDE, "--pair", "1,2"])
    assert code == 0
    assert json.loads(out)["outputs"]["N"] == expected


def test_error_exit_codes_through_process():
    code, out = cli_bytes(["compute", "--alpha", "1,2,3", "--pair", "1,2"])
    assert code == 3
    payload = json.loads(out)
    assert payload["exit_code"] == 3
