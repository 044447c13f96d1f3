"""Envelope shape, exit codes, schema conformance, byte determinism."""

import argparse
import gc
import json
import random
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from signsum import (
    DegenerateVectorError,
    InternalCheckError,
    ParseError,
    PreconditionError,
    SignVector,
    invariants,
    shortening,
    weights,
)
from signsum.cli import _COMMANDS, _parse_args, main, run

from conftest import child_env


@pytest.fixture(scope="module")
def validator():
    text = resources.files("signsum").joinpath("cli_schema.json").read_text()
    schema = json.loads(text)
    jsonschema.Draft202012Validator.check_schema(schema)
    return jsonschema.Draft202012Validator(schema)


def _reject_constant(name):
    raise ValueError(f"envelope holds {name}, which is not JSON")


def roundtrip(argv):
    """The result and its envelope, parsed as strict JSON."""
    result = run(argv)
    return result, json.loads(result.to_json(), parse_constant=_reject_constant)


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
    # ties and a near tie that rounds to one beta
    ["approx-beta", "--alpha", "7/2,7/2,5,9/4"],
    ["approx-beta", "--alpha", "log:3,log:301/100,log:5,log:7"],
    ["primes", "--n", "5"],
    ["primes", "--n", "6", "--pair", "1,4", "--method", "moebius"],
    # the divisor count at the cap, at both parities of n
    ["primes", "--n", "20", "--pair", "1,16", "--method", "moebius"],
    ["primes", "--n", "19", "--pair", "4,11"],
    ["wall-cross", "--alpha", "1,2,3", "--l", "3", "--pair", "1,2"],
    ["wall-cross", "--alpha", "2,3,4,8", "--l", "3", "--pair", "1,2"],
    ["rademacher", "--i", "3", "--t", "5/16"],
    ["rademacher", "--i", "1000000000000000000", "--t", "1/3"],
]


def _oversized_approx_beta():
    """approx-beta on eight components over distinct random 701-digit
    denominators: the printed bound's denominator has over 5,000 digits."""
    rng = random.Random(701)
    parts = []
    for _ in range(8):
        den = rng.randrange(10**700, 10**701)
        parts.append(f"{rng.randrange(den, 100 * den)}/{den}")
    return ["approx-beta", "--alpha", ",".join(parts)]


# integers beyond the interpreter's 4,300-digit string conversion limit:
# in an input they are malformed, in an output a precondition failure
OVERSIZED = [
    (["verify", "--alpha", "9" * 4400 + ",2,3"], 2, "parse"),
    (["verify", "--alpha", "log:" + "9" * 4400 + ",log:2,log:3"], 2, "parse"),
    (
        ["shorten", "--alpha", f"3/{10**2500 + 1},5/{10**2500 + 3},7",
         "--j", "1", "--k", "2", "--sign", "+"],
        3,
        "precondition",
    ),
    (_oversized_approx_beta(), 3, "precondition"),
]

FAILING = OVERSIZED + [
    (["compute", "--alpha", "4;6", "--pair", "1,2"], 2, "parse"),
    (["compute", "--alpha", "2,3,4"], 2, "parse"),
    (["nope"], 2, "parse"),
    ([], 2, "parse"),
    (["compute", "--alpha", "1,2,3", "--pair", "1,2"], 3, "degenerate"),
    (["compute", "--alpha", "2,3,4", "--pair", "1,1"], 3, "precondition"),
    # the pair is checked before the survey that finds the vector degenerate
    (["closed-form", "--alpha", "1,2,3", "--pair", "1,4"], 3, "precondition"),
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
    # a command token that names no subcommand resolves none, whatever
    # follows it
    (["bogus", "verify"], 2, "parse"),
    (["--alpha", "1,2,3", "verify"], 2, "parse"),
    # no help text: one envelope per invocation, help options are unknown
    (["--help"], 2, "parse"),
    (["verify", "-h"], 2, "parse"),
    # an inline "--" is a value, not an empty list
    (["verify", "--alpha=--"], 2, "parse"),
    (["weights", "--m=--"], 2, "parse"),
    # fewer than 3 components have no pair with a solution set
    (["verify", "--alpha", "5"], 3, "precondition"),
    (["integral", "--beta", "3,5", "--formula", "result"], 3, "precondition"),
    # a tolerance must be finite, and the envelope strict JSON
    (["integral", "--beta", "2,3,4", "--formula", "result", "--quadrature",
      "--tol", "nan"], 2, "parse"),
    (["integral", "--beta", "2,3,4", "--formula", "result", "--quadrature",
      "--tol", "inf"], 2, "parse"),
    (["integral", "--beta", "2,3,4", "--formula", "result", "--quadrature",
      "--tol=-inf"], 2, "parse"),
    # digits are ASCII, with no "_" between them, though int() and
    # Fraction() read both
    (["compute", "--alpha", "2,3,4", "--pair", "1_0,2"], 2, "parse"),
    (["verify", "--alpha", "\u0663,2,7"], 2, "parse"),
    (["integral", "--beta", "2,3,\u0664", "--formula", "result"], 2, "parse"),
    (["rademacher", "--i", "3", "--t", "\u0663/\u0661\u0666"], 2, "parse"),
    (["wall-cross", "--alpha", "2,3,4,8", "--l", "3", "--pair", "1,2",
      "--delta", "\u0661/\u0668"], 2, "parse"),
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
    if kind == "parse":  # refused before any input is normalized
        assert payload["inputs"] is None
    # the first token names the command in every entry that has one
    assert payload["command"] == (argv[0] if argv and argv[0] in _COMMANDS else None)
    validator.validate(payload)


def test_closed_form_refuses_its_pair_before_any_table(no_tables):
    alpha = ",".join(str(100_000_007 + 2 * k) for k in range(30))
    _, payload = roundtrip(["closed-form", "--alpha", alpha, "--pair", "1,31"])
    assert payload["error"] == {
        "type": "precondition",
        "message": "pair index 31 exceeds vector length 30",
    }


_NINE_DIGITS = ",".join(str(100_000_007 + 2 * k) for k in range(30))
_DELTA = "delta must be positive and below half the minimum nonzero gap"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["integral", "--beta", _NINE_DIGITS, "--formula", "result1"],
         "this formula needs the pair index"),
        (["integral", "--beta", _NINE_DIGITS, "--formula", "result2",
          "--pair-index", "31"], "component index out of range"),
        (["integral", "--beta", _NINE_DIGITS, "--formula", "result2",
          "--pair-index", "1", "--quadrature", "--tol", "0"],
         "tolerance must be positive"),
        (["integral", "--beta", _NINE_DIGITS, "--formula", "result", "--quadrature"],
         "quadrature needs 3,000,001,081 evaluations, over its 3,000,000-evaluation"
         " budget"),
        (["wall-cross", "--alpha", _NINE_DIGITS, "--l", "3", "--pair", "1,2",
          "--delta", "0"], _DELTA),
        (["wall-cross", "--alpha", _NINE_DIGITS, "--l", "3", "--pair", "1,2",
          "--delta=-1/2"], _DELTA),
        # degenerate as well, but with no pair to scan
        (["verify", "--alpha", "1,1"], "solution sets require at least 3 components"),
        (["primes", "--n", "20", "--pair", "1,21", "--method", "direct"],
         "pair index 21 exceeds vector length 20"),
        (["primes", "--n", "20", "--pair", "2,25"],
         "pair index 25 exceeds vector length 20"),
        (["primes", "--n", "5", "--pair", "1,7", "--method", "moebius"],
         "pair index 7 exceeds vector length 5"),
    ],
    ids=["integral-no-index", "integral-index", "integral-tol",
         "integral-budget", "wall-cross-zero",
         "wall-cross-negative", "verify-short", "primes-direct", "primes-both",
         "primes-moebius"],
)
def test_cheap_refusals_before_any_table(argv, message, no_tables):
    _, payload = roundtrip(argv)
    assert payload["error"] == {"type": "precondition", "message": message}
    assert payload["exit_code"] == 3


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


@pytest.fixture
def tables_built(monkeypatch):
    """The half tables built from here on, with integral's cache empty."""
    from signsum import _halves, trig

    built = []
    init = _halves.HalfTables.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(_halves.HalfTables, "__init__", counting)
    trig._integer_vector.cache_clear()
    return built


def test_integral_request_builds_one_table(tables_built):
    # integer_beta's survey, the exact value and its checks share one table
    _, payload = roundtrip(["integral", "--beta", "2,3,4,8", "--formula", "result"])
    assert payload["exit_code"] == 0
    assert len(tables_built) == 1


def test_quadrature_request_builds_one_table(tables_built):
    _, payload = roundtrip(
        ["integral", "--beta", "2,3,4,8", "--formula", "result", "--quadrature"]
    )
    assert payload["exit_code"] == 0 and payload["outputs"]["agree"] is True
    assert len(tables_built) == 1


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


# Printed bounds of vectors whose gap ratio is 2 or more (noted after each
# vector), where the bracket of log(gap) first takes square roots of the
# ratio down to 2; these once read a cached log 2.
LOG2_BOUNDS = [
    ("log:3",  # gap 3
     '"outputs":{"beta":[1],"bound":"10132909862646469819/9223372036854775808",'
     '"m":1,"q":"1"}'),
    ("log:2,log:4",  # gap 2
     '"outputs":{"beta":[1,3],"bound":"12786308645202655659/18446744073709551616",'
     '"m":2,"q":"2"}'),
    ("log:100,log:1000,log:1000000",  # gap 10
     '"outputs":{"beta":[5,7,14],"bound":"5309399739799983627/2305843009213693952",'
     '"m":3,"q":"1"}'),
    ("log:1000,log:7/3,log:999/5",  # gap 5000/2331
     '"outputs":{"beta":[14,2,11],"bound":"14077458462032058523/18446744073709551616",'
     '"m":3,"q":"2"}'),
]


@pytest.mark.parametrize("alpha,outputs", LOG2_BOUNDS, ids=[a for a, _ in LOG2_BOUNDS])
def test_pinned_log2_bounds(alpha, outputs):
    code, out = cli_bytes(["approx-beta", "--alpha", alpha])
    assert code == 0
    assert out == (
        '{"command":"approx-beta","error":null,"exit_code":0,'
        f'"inputs":{{"alpha":"{alpha}"}},{outputs}}}\n'
    ).encode()


def test_solutions_materialized():
    _, payload = roundtrip(
        ["compute", "--alpha", "4,6,7,9,11", "--pair", "1,2", "--solutions"]
    )
    assert payload["outputs"]["solutions"] == [[1, -1, 1], [1, 1, -1]]
    assert payload["outputs"]["coordinates"] == [3, 4, 5]


def test_degenerate_includes_witness():
    _, payload = roundtrip(["compute", "--alpha", "1,2,3", "--pair", "1,2"])
    assert payload["error"]["witness"] == [1, 1, -1]


def _degenerate_values(rng, m):
    """m - 1 random entries and the last equal to a nonzero signed sum
    of them, so that one signed sum of the m entries vanishes."""
    while True:
        head = [rng.randint(1, 50) for _ in range(m - 1)]
        total = sum(rng.choice((1, -1)) * v for v in head)
        if total:
            return head + [abs(total)]


@pytest.mark.parametrize(
    "values",
    [[1, 2, 2, 1], [1, 2, 3], [1] * 30, _degenerate_values(random.Random(12), 9)],
    ids=["1,2,2,1", "1,2,3", "ones30", "generated"],
)
def test_every_subcommand_reports_one_witness(values):
    text = ",".join(map(str, values))
    errors = [
        roundtrip(argv)[1]["error"]
        for argv in (
            ["integral", "--beta", text, "--formula", "result"],
            ["verify", "--alpha", text],
            ["compute", "--alpha", text, "--pair", "1,2"],
            ["approx-beta", "--alpha", text],
        )
    ]
    assert errors[0]["type"] == "degenerate"
    assert all(error == errors[0] for error in errors)
    assert errors[0]["message"] == "vector has a vanishing signed sum"


def test_normalized_input_echo():
    _, payload = roundtrip(["compute", "--alpha", "6.25,4/2,7", "--pair", "2,1"])
    assert payload["inputs"]["alpha"] == "25/4,2,7"
    assert payload["inputs"]["pair"] == [1, 2]


def test_internal_error_maps_to_four(monkeypatch, validator):
    def boom(*a, **k):
        raise InternalCheckError("forced failure")

    # the function compute's single scan goes through
    monkeypatch.setattr(invariants, "_scan", boom)
    result, payload = roundtrip(["compute", "--alpha", "2,3,4", "--pair", "1,2"])
    assert result.exit_code == 4
    assert payload["error"] == {"type": "internal", "message": "forced failure"}
    validator.validate(payload)


# each error class a handler may raise: the envelope's type and exit code
ERROR_TABLE = [
    (ParseError("bad"), "parse", 2),
    (DegenerateVectorError("flat", SignVector(3, 0b101)), "degenerate", 3),
    (PreconditionError("refused"), "precondition", 3),
    (InternalCheckError("broken"), "internal", 4),
]


@pytest.mark.parametrize("filled", [False, True], ids=["before-fill", "after-fill"])
@pytest.mark.parametrize(
    "exc,kind,code", ERROR_TABLE, ids=[kind for _, kind, _ in ERROR_TABLE]
)
def test_error_table_maps_each_class(monkeypatch, validator, exc, kind, code, filled):
    """A handler's error gives its row's type and exit code, a witness only
    when degenerate, and the inputs only once the handler filled them."""

    def stub(args, inputs):
        if filled:
            inputs.update(m=args.m)
        raise exc

    monkeypatch.setattr(weights, "_cmd_weights", stub)
    result, payload = roundtrip(["weights", "--m", "4"])
    assert result.exit_code == code
    expected = {"type": kind, "message": str(exc)}
    if kind == "degenerate":
        expected["witness"] = [-1, 1, -1]
    assert payload["error"] == expected
    assert payload["inputs"] == ({"m": 4} if filled else None)
    assert payload["command"] == "weights" and payload["outputs"] is None
    validator.validate(payload)


def test_digit_limit_value_error_is_a_precondition(monkeypatch, validator):
    """A ValueError from the interpreter's digit limit, raised by the
    operation, is a precondition failure; any other ValueError is a bug
    that propagates."""

    def stub(args, inputs):
        inputs.update(m=args.m)
        return {"value": str(10 ** (sys.get_int_max_str_digits() + 1))}

    monkeypatch.setattr(weights, "_cmd_weights", stub)
    result, payload = roundtrip(["weights", "--m", "4"])
    assert result.exit_code == 3
    assert payload["error"]["type"] == "precondition"
    limit = sys.get_int_max_str_digits()
    assert f"{limit}-digit integer limit" in payload["error"]["message"]
    assert payload["inputs"] == {"m": 4}
    validator.validate(payload)

    def other(args, inputs):
        raise ValueError("not a digit limit")

    monkeypatch.setattr(weights, "_cmd_weights", other)
    with pytest.raises(ValueError, match="not a digit limit"):
        run(["weights", "--m", "4"])


def test_identity_choices_are_the_verifier_table():
    """The command line offers the identities that ``shortening`` holds
    verifiers for, in the table's order."""
    choices = _COMMANDS["verify-shortening"].options["--identity"].choices
    assert choices == tuple(shortening._IDENTITIES)


def test_one_window_per_request(monkeypatch):
    """``compute`` asks the kernel for one window, with or without
    ``--solutions``, whichever half it scans; ``closed-form`` asks for
    none.  A window that hands itself to its swapped view counts once."""
    from signsum import _halves

    window = _halves.HalfTables.window
    calls, depth = [], [0]

    def counted(self, *args, **kwargs):
        if not depth[0]:
            calls.append(args)
        depth[0] += 1
        try:
            return window(self, *args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(_halves.HalfTables, "window", counted)
    compute = ["compute", "--alpha", "4,6,7,9,11"]
    for argv, expected in (
        (compute + ["--pair", "1,2"], 1),
        (compute + ["--pair", "4,5"], 1),
        (compute + ["--pair", "1,2", "--solutions"], 1),
        (compute + ["--pair", "4,5", "--solutions"], 1),
        (["closed-form", "--alpha", "4,6,7,9,11", "--pair", "1,2"], 0),
        (["closed-form", "--alpha", "4,6,7,9,11"], 0),
    ):
        calls.clear()
        assert run(argv).exit_code == 0
        assert len(calls) == expected, argv


def test_run_reports_unknown_flag_as_parse_error():
    result, _ = roundtrip(["compute", "--alpha", "2,3,4", "--pair", "1,2", "--zap"])
    assert result.exit_code == 2


def cli_process(argv):
    """``python -m signsum ARG...`` run to its end."""
    return subprocess.run(
        [sys.executable, "-m", "signsum", *argv],
        capture_output=True,
        env=child_env(),
        timeout=120,
    )


def cli_bytes(argv):
    proc = cli_process(argv)
    return proc.returncode, proc.stdout


# modules that only some subcommands run
OPERATION_MODULES = (
    "invariants", "forms", "walls", "trig", "weights", "shortening", "primes"
)

CODE_LINES = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

# Defines ``signsum_lines(*extra)``: the loaded signsum modules and the
# code-only line total (tools/code_lines.py) of their files and of the
# files in ``extra``, the source a process without a bytecode cache
# compiles.  Call it last: the counter loads ``ast`` and ``tokenize``.
LINES_PROBE = f"""
import runpy, sys
def signsum_lines(*extra):
    loaded = sorted(
        m for m in sys.modules if m == "signsum" or m.startswith("signsum."))
    count = runpy.run_path({str(CODE_LINES)!r})["code_lines"]
    files = [sys.modules[m].__file__ for m in loaded] + list(extra)
    return loaded, sum(count(open(f, encoding="utf-8").read()) for f in files)
"""

# code-only lines that ``import signsum.cli`` may compile: the option
# table, the parser, the envelope and the core records and grammar
CLI_IMPORT_LINES = 557


def test_cli_import_skips_mpmath_and_thread_pool():
    """Neither mpmath nor a thread pool is imported, no operation module
    is imported before a subcommand runs it, and the modules imported
    hold at most ``CLI_IMPORT_LINES`` code-only lines."""
    unwanted = ("mpmath", "concurrent.futures") + tuple(
        f"signsum.{name}" for name in OPERATION_MODULES
    )
    probe = LINES_PROBE + (
        "import json, signsum.cli\n"
        f"found = [m for m in {unwanted!r} if m in sys.modules]\n"
        "print(json.dumps([found, signsum_lines()[1]]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    found, lines = json.loads(proc.stdout)
    assert found == []
    assert lines <= CLI_IMPORT_LINES


# Runs ``python -m signsum ARG...`` in this process and, at exit, writes
# four things to stderr as its last line: the loaded signsum modules;
# which of these modules, none of which a subcommand needs, got loaded:
# ``dataclasses`` and ``inspect`` (with its ast, dis and tokenize),
# ``argparse`` with the ``gettext`` and ``locale`` it loads, and
# ``mpmath``; whether the process entry froze the heap, which also
# shows that the exit handlers still run; and the code-only line total
# of the loaded signsum modules and the entry module ``__main__.py``.
MODULE_PROBE = LINES_PROBE + """
import atexit, gc, json, os
heavy = ("dataclasses", "inspect", "argparse", "gettext", "locale", "mpmath")
def report():
    found = [m for m in heavy if m in sys.modules]
    frozen = gc.get_freeze_count() > 0
    entry = os.path.join(os.path.dirname(sys.modules["signsum"].__file__),
                         "__main__.py")
    loaded, lines = signsum_lines(entry)
    sys.stderr.write("\\n" + json.dumps([loaded, found, frozen, lines]))
atexit.register(report)
runpy.run_module("signsum", run_name="__main__", alter_sys=True)
"""

ALWAYS_LOADED = {"signsum", "signsum.cli", "signsum.core"}

# one request per subcommand and the modules it runs beyond those; every
# request that builds a half table loads the kernel, ``_halves``
COLD_REQUESTS = [
    (["compute", "--alpha", "4,6,7,9,11", "--pair", "1,2", "--solutions"],
     {"invariants", "_halves"}),
    (["verify", "--alpha", "2,3,4,8"], {"invariants", "_halves"}),
    (["closed-form", "--alpha", "2,3,4,8", "--pair", "1,2"],
     {"forms", "_halves"}),
    (["weights", "--m", "5"], {"weights"}),
    (["shorten", "--alpha", "4,6,7,9,11", "--j", "2", "--k", "4", "--sign", "-"],
     {"shortening", "_halves"}),
    (["verify-shortening", "--alpha", "2,3,4,8", "--identity", "count-split",
      "--indices", "3,4,2"], {"shortening", "invariants", "_halves"}),
    (["integral", "--beta", "2,3,4,8", "--formula", "result"], {"trig", "_halves"}),
    (["approx-beta", "--alpha", "7/2,9/4,5"], {"trig", "_halves"}),
    (["primes", "--n", "5"], {"primes", "invariants", "_halves"}),
    (["wall-cross", "--alpha", "2,3,4,8", "--l", "3", "--pair", "1,2"],
     {"walls", "invariants", "_halves"}),
    (["rademacher", "--i", "3", "--t", "5/16"], {"trig"}),
]


# the log realization: certified brackets and product tables
COLD_LOG_REQUESTS = [
    (["approx-beta", "--alpha", "log:2,log:3,log:5"], {"trig", "_halves"}),
    (["verify", "--alpha", "log:2,log:3,log:5,log:7/2"], {"invariants", "_halves"}),
]


# code-only lines a cold request may compile, by subcommand
COLD_LINES = {"compute": 940, "verify": 940, "weights": 640}


def test_cold_requests_cover_every_subcommand():
    assert sorted(argv[0] for argv, _ in COLD_REQUESTS) == sorted(_COMMANDS)


@pytest.mark.parametrize(
    "argv,operations",
    COLD_REQUESTS + COLD_LOG_REQUESTS,
    ids=[argv[0] for argv, _ in COLD_REQUESTS]
    + [f"{argv[0]}-log" for argv, _ in COLD_LOG_REQUESTS],
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
    loaded, heavy, frozen, lines = json.loads(
        proc.stderr.decode().rsplit("\n", 1)[1]
    )
    assert set(loaded) == ALWAYS_LOADED | {f"signsum.{name}" for name in operations}
    assert heavy == []
    assert frozen
    assert lines <= COLD_LINES.get(argv[0], lines)


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
    """The process entry writes what ``main`` writes and exits with its
    code: the envelope on stdout, the message as stderr's last line."""
    kinds = []
    for argv in (
        ["compute", "--alpha", "4;6", "--pair", "1,2"],
        ["compute", "--alpha", "2,3,4", "--pair", "1,1"],
        ["compute", "--alpha", "1,2,3", "--pair", "1,2"],
    ):
        result = run(argv)
        proc = cli_process(argv)
        assert proc.returncode == result.exit_code
        assert proc.stdout == (result.to_json() + "\n").encode()
        assert proc.stderr.decode().splitlines()[-1] == result.error["message"]
        kinds.append(result.error["type"])
    assert kinds == ["parse", "precondition", "degenerate"]


def test_oversized_output_through_process(validator):
    argv, code, kind = OVERSIZED[2]
    proc = cli_process(argv)
    assert proc.returncode == code
    payload = json.loads(proc.stdout)
    assert payload["error"]["type"] == kind
    limit = sys.get_int_max_str_digits()
    assert f"{limit}-digit integer limit" in payload["error"]["message"]
    validator.validate(payload)


def test_in_process_calls_leave_the_heap_unfrozen(capsys):
    frozen = gc.get_freeze_count()
    run(["verify", "--alpha", "2,3,4,8"])
    assert main(["verify", "--alpha", "2,3,4,8"]) == 0
    assert main(["compute", "--alpha", "1,2,3", "--pair", "1,2"]) == 3
    assert gc.get_freeze_count() == frozen
    assert capsys.readouterr().out.count("\n") == 2


def test_script_target_is_the_process_entry():
    """The ``signsum`` script runs the function ``python -m signsum``
    runs (a text check: ``tomllib`` is not in Python 3.10)."""
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    target = re.search(r'^signsum = "signsum\.__main__:(\w+)"$', scripts, re.M)
    source = resources.files("signsum").joinpath("__main__.py").read_text()
    called = re.search(r"^    raise SystemExit\((\w+)\(\)\)$", source, re.M)
    assert target and called and target.group(1) == called.group(1)


# ---------------------------------------------------------------------------
# The option tables against the argparse parser they replaced.


class _OracleParser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


def _build_parser() -> _OracleParser:
    """The former parser, unchanged but for its help options: a command
    line that prints one JSON document per invocation has no help text,
    so -h and --help are unknown options on both sides."""
    parser = _OracleParser(prog="signsum", add_help=False)
    sub = parser.add_subparsers(dest="command", parser_class=_OracleParser)
    sub.required = True

    def add_parser(name):
        return sub.add_parser(name, add_help=False)

    p = add_parser("compute")
    p.add_argument("--alpha", required=True)
    p.add_argument("--pair", required=True)
    p.add_argument("--solutions", action="store_true")

    p = add_parser("verify")
    p.add_argument("--alpha", required=True)

    p = add_parser("closed-form")
    p.add_argument("--alpha", required=True)
    p.add_argument("--pair")

    p = add_parser("weights")
    p.add_argument("--m", type=int, required=True)

    p = add_parser("shorten")
    p.add_argument("--alpha", required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--sign", choices=("+", "-"), required=True)

    p = add_parser("verify-shortening")
    p.add_argument("--alpha", required=True)
    p.add_argument(
        "--identity",
        choices=("count-split", "signed-even", "count-general", "signed-odd"),
        required=True,
    )
    p.add_argument("--indices", required=True)

    p = add_parser("integral")
    p.add_argument("--beta", required=True)
    p.add_argument("--formula", choices=("result", "result1", "result2"), required=True)
    p.add_argument("--pair-index", type=int, dest="pair_index")
    p.add_argument("--quadrature", action="store_true")
    p.add_argument("--tol", type=float, default=1e-8)

    p = add_parser("approx-beta")
    p.add_argument("--alpha", required=True)

    p = add_parser("primes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pair", default="1,2")
    p.add_argument("--method", choices=("direct", "moebius", "both"), default="both")

    p = add_parser("wall-cross")
    p.add_argument("--alpha", required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--pair", required=True)
    p.add_argument("--delta")

    p = add_parser("rademacher")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--t", required=True)

    return parser


_ORACLE = _build_parser()


def _parse_outcome(parse, argv):
    try:
        return vars(parse(list(argv)))
    except ParseError as exc:
        return str(exc)


_VALUES = (
    "-", "-1", "-1,2", "", "--", "-1.5", "-.5", "-1e3", "2,3,4", "4,6,7,9,11",
    "log:2,log:3", "1,2", "5", " 7 ", "x", "0.5", "1e-3", "nan", "+", "a b",
    "-x y", "=", "-h", "--help", "--zap", "-q",
)
_NAMES = sorted({name for spec in _COMMANDS.values() for name in spec.options})
# every option name and each of its prefixes longer than "--"
_PREFIXES = sorted({name[:k] for name in _NAMES + ["--help", "--zap"]
                    for k in range(3, len(name) + 1)})


@st.composite
def _option_tokens(draw, name, option):
    """One option of a command: its name or a prefix of it, then its
    value as the next token, inline after "=", or left out."""
    spelled = draw(st.sampled_from([name, name, name[: max(3, len(name) - 2)]]))
    value = draw(st.sampled_from(_VALUES + tuple(option.choices or ()) * 3))
    style = draw(st.sampled_from(["next", "next", "inline", "none"]))
    if option.flag:
        style = draw(st.sampled_from(["none", "none", "none", "inline"]))
    if style == "next":
        return [spelled, value]
    return [f"{spelled}={value}"] if style == "inline" else [spelled]


@st.composite
def _argvs(draw):
    """A command line, mostly well formed: a command (now and then a wrong
    one, or a token before it), some of its options in any order, each
    possibly repeated or abbreviated, with good, odd or missing values,
    and now and then stray tokens: any option name or prefix, with or
    without "=value", the values above and short arbitrary text."""
    roll = draw(st.integers(0, 9))
    command = draw(st.sampled_from(list(_COMMANDS)))
    if roll == 0:
        command = draw(st.sampled_from(["nope", "", "--", "-1", "-h"]))
    head = [draw(st.sampled_from(["-x", "--zap", "--", "-1", "a b"]))] if roll == 1 else []
    groups = []
    options = _COMMANDS[command].options if command in _COMMANDS else {}
    for name, option in options.items():
        for _ in range(draw(st.sampled_from([0, 1, 1, 1, 1, 2]))):
            groups.append(draw(_option_tokens(name, option)))
    groups = draw(st.permutations(groups))
    value = st.sampled_from(_VALUES)
    option = st.sampled_from(_PREFIXES)
    noise = st.one_of(
        option, value, st.builds("{}={}".format, option, value), st.text(max_size=4)
    )
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        at = draw(st.integers(0, len(groups)))
        groups.insert(at, [draw(noise)])
    return head + [command] + [token for group in groups for token in group]


@settings(max_examples=800, deadline=None)
@given(_argvs())
@example(["compute", "--alpha", "4,6,7,9,11", "--pair", "1,2", "--solutions"])
@example(["compute", "--alpha"])  # a missing value
@example(["compute", "--pair", "1,2"])  # a missing option
@example(["compute", "--alpha", "2,3", "--pair", "1,2", "--zap", "x"])  # unknown
@example(["verify", "--alpha", "1,2", "--alpha", "3,4,5"])  # the last repeat wins
@example(["verify", "--al=2,3,4"])  # an abbreviation with an inline value
@example(["verify-shortening", "--i", "count-split"])  # ambiguous prefix
@example(["integral", "--beta=", "--formula", "result", "--tol", "-1"])
@example(["compute", "--alpha", "-", "--pair", "-1,2"])
@example(["weights", "--m", "-1"])
@example(["integral", "--beta", "2,3,4", "--formula", "result", "--quadrature=x"])
@example(["primes", "--n", "5", "--", "--pair", "1,3"])
@example(["--", "verify", "--alpha", "2,3,4"])
@example(["--zap", "verify", "--alpha", "2,3,4", "-h"])
@example(["shorten", "--alpha", "2,3,4", "--j", "1", "--k", "2", "--sign", "x"])
def test_option_tables_match_the_argparse_parser(argv):
    # argparse drops an inline "--" and stores an empty list, on which the
    # subcommands crashed; the tables keep it as text (see FAILING)
    assume(not any(t.startswith("--") and t.partition("=")[2] == "--" for t in argv))
    assert _parse_outcome(_parse_args, argv) == _parse_outcome(
        _ORACLE.parse_args, argv
    )


@settings(max_examples=800, deadline=None)
@given(_argvs())
@example(["bogus", "verify"])
@example(["--alpha", "1,2,3", "verify"])
@example(["--", "verify", "--alpha", "2,3,4"])
@example(["verify", "--alpha"])
@example(["verify", "--alpha", "x"])
def test_grammar_failures_give_valid_envelopes(validator, argv):
    """Every envelope names the command the argparse parser resolved, or
    none; a parse failure is exit 2 with neither inputs nor outputs."""
    result, payload = roundtrip(argv)
    validator.validate(payload)
    resolved = argparse.Namespace()
    try:
        _ORACLE.parse_args(list(argv), resolved)
    except ParseError:
        pass
    assert payload["command"] == resolved.command
    if payload["error"] is not None and payload["error"]["type"] == "parse":
        assert result.exit_code == 2
        assert payload["inputs"] is None and payload["outputs"] is None
