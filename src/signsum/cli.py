"""Command-line front end: one subcommand per operation, JSON out.

Every invocation prints exactly one JSON document to stdout, shaped by
the envelope in ``cli_schema.json``: command echo, normalized inputs,
operation outputs, error, exit code.  Exit codes: 0 success, 2 malformed
input, 3 precondition violation (including a degenerate vector, with the
witness sign vector in the error object), 4 failed internal assertion.
Output bytes are deterministic for identical inputs.

``run(argv)`` returns the envelope and ``main(argv)`` writes it and
returns the exit code; neither freezes the heap.  The process entry,
``signsum.__main__.entry``, calls ``main()`` and then ``gc.freeze()``,
so the process skips CPython's exit-time collection.
"""

from __future__ import annotations

import json
import math
import re
import sys
from collections import namedtuple
from fractions import Fraction
from types import SimpleNamespace

from .core import (
    AlphaVector,
    DegenerateVectorError,
    PairSelection,
    ParseError,
    PreconditionError,
    SignsumError,
    format_scalar,
    parse_vector,
)

__all__ = ["CommandResult", "run", "main"]


class CommandResult(
    namedtuple("CommandResult", "command inputs outputs error exit_code")
):
    """One invocation's envelope: command, inputs, outputs, error, exit code."""

    __slots__ = ()

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "error": self.error,
            "exit_code": self.exit_code,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _format_vector(alpha: AlphaVector) -> str:
    return ",".join(format_scalar(c) for c in alpha.components)


def _ascii(token: str) -> str:
    """The token, or ValueError unless it is ASCII without "_": ``int``
    and ``Fraction`` also read other scripts' digits and "_" between
    digits, which the input grammar does not take."""
    if not token.isascii() or "_" in token:
        raise ValueError(token)
    return token


def _parse_pair(text: str) -> PairSelection:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError("pair must be two comma-separated indices")
    try:
        i, j = (int(_ascii(p.strip())) for p in parts)
    except ValueError:
        raise ParseError(f"malformed pair {text!r}") from None
    return PairSelection(i, j)


def _parse_int_list(text: str, what: str) -> list[int]:
    parts = text.split(",")
    if not parts or any(not p.strip() for p in parts):
        raise ParseError(f"{what} must be a comma-separated list of integers")
    try:
        return [int(_ascii(p.strip())) for p in parts]
    except ValueError:
        raise ParseError(f"malformed {what} {text!r}") from None


def _parse_rational(text: str, what: str) -> Fraction:
    try:
        return Fraction(_ascii(text.strip()))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"malformed {what} {text!r}") from None


def _sign_rows(masks, length: int) -> list[list[int]]:
    """Each mask as its row of ``length`` signs, -1 where a bit is set."""
    return [[-1 if mask >> k & 1 else 1 for k in range(length)] for mask in masks]


# Each handler's execute() imports the operation modules it calls, so a
# cold process compiles and runs only its own subcommand's modules.


def _cmd_compute(args):
    alpha = parse_vector(args.alpha)
    pair = _parse_pair(args.pair)
    inputs = {
        "alpha": _format_vector(alpha),
        "pair": [pair.i, pair.j],
        "solutions": bool(args.solutions),
    }

    def execute():
        from . import invariants

        # one scan, materialized only when the rows are asked for
        scan = invariants._scan(alpha, pair, materialize=args.solutions)
        out = {"N": scan.signed, "count": scan.count, "parity": scan.count & 1}
        if args.solutions:
            out["solutions"] = _sign_rows(scan.masks, alpha.m - 2)
            out["coordinates"] = [
                alpha.original_index(p)
                for p in range(alpha.m)
                if p not in (pair.i - 1, pair.j - 1)
            ]
        return out

    return inputs, execute


def _cmd_verify(args):
    alpha = parse_vector(args.alpha)
    inputs = {"alpha": _format_vector(alpha)}

    def execute():
        from . import invariants

        report = invariants.verify_invariance(alpha)
        return {
            "m": report.m,
            "parity_invariant": report.parity_invariant,
            "parity": report.parity,
            "N_invariant": report.n_invariant,
            "N": report.signed,
            "N_by_max_omitted": None
            if report.n_by_max_omitted is None
            else {format_scalar(k): v for k, v in report.n_by_max_omitted.items()},
            "count_by_min_omitted": {
                format_scalar(k): v for k, v in report.count_by_min_omitted.items()
            },
            "abs_N_invariant": report.abs_n_invariant,
            "violations": list(report.violations),
            "rows": [
                {
                    "pair": [row.pair.i, row.pair.j],
                    "count": row.count,
                    "parity": row.parity,
                    "N": row.signed,
                }
                for row in report.rows
            ],
        }

    return inputs, execute


def _cmd_closed_form(args):
    alpha = parse_vector(args.alpha)
    pair = _parse_pair(args.pair) if args.pair else None
    inputs = {"alpha": _format_vector(alpha)}
    if pair is not None:
        inputs["pair"] = [pair.i, pair.j]

    def execute():
        from . import invariants

        if pair is not None:  # refused before the survey builds a table
            pair.validate(alpha.m)
        outputs = {"g": invariants.closed_form_g(alpha)}
        if pair is not None:
            outputs["count_via_sign_sum"] = invariants.count_via_sign_sum(
                alpha, pair
            )
            if alpha.m % 2 == 0:
                outputs["N_via_sign_sum"] = (
                    invariants.signed_count_even_via_sign_sum(alpha, pair)
                )
        return outputs

    return inputs, execute


def _cmd_weights(args):
    inputs = {"m": args.m}

    def execute():
        from . import weights

        dimension, basis = weights.solve_weight_space(args.m)
        return {
            "m": args.m,
            "dimension": dimension,
            "basis": [[str(v) for v in f.table] for f in basis],
        }

    return inputs, execute


def _cmd_shorten(args):
    alpha = parse_vector(args.alpha)
    inputs = {
        "alpha": _format_vector(alpha),
        "j": args.j,
        "k": args.k,
        "sign": args.sign,
    }

    def execute():
        from . import shortening

        shortened = shortening.shorten(alpha, args.j, args.k, args.sign)
        base = shortened.base
        return {
            "gamma": _format_vector(base),
            "coordinates": [base.original_index(p) for p in range(base.m)],
            "replaced_index": shortened.replaced_index,
            "deleted_index": shortened.deleted_index,
            "sign": shortened.sign,
            "new_component": format_scalar(shortened.new_scalar),
        }

    return inputs, execute


def _cmd_verify_shortening(args):
    alpha = parse_vector(args.alpha)
    indices = _parse_int_list(args.indices, "indices")
    identities = _COMMANDS[args.command].options["--identity"].choices
    arity, verifier = identities[args.identity]
    if len(indices) != arity:
        raise ParseError(f"identity {args.identity} takes {arity} indices")
    inputs = {
        "alpha": _format_vector(alpha),
        "identity": args.identity,
        "indices": indices,
    }

    def execute():
        from . import shortening

        holds = getattr(shortening, verifier)(alpha, *indices)
        outputs = {"identity": args.identity, "holds": holds}
        if isinstance(holds, tuple):  # signed-odd also names its orientation
            outputs["orientation"], outputs["holds"] = holds
        return outputs

    return inputs, execute


def _cmd_integral(args):
    beta_list = _parse_int_list(args.beta, "beta")
    if not math.isfinite(args.tol):
        raise ParseError(f"argument --tol: must be finite, got {args.tol!r}")
    inputs = {"beta": beta_list, "formula": args.formula}
    if args.pair_index is not None:
        inputs["pair_index"] = args.pair_index
    if args.quadrature:
        inputs["quadrature"] = True
        inputs["tolerance"] = args.tol

    def execute():
        from . import trig

        # every refusal that reads only the integers comes before the
        # survey builds a table
        trig._formula(beta_list, args.formula, args.pair_index)
        values = trig._positive_integers(beta_list)
        if args.quadrature:
            trig._quadrature_plan(values, args.formula, args.tol, args.pair_index)
        beta = trig.integer_beta(values)
        if not args.quadrature:
            exact = trig.exact_formula_value(beta, args.formula, args.pair_index)
            return {"formula": args.formula, "exact": exact}
        check = trig.quadrature_check(beta, args.formula, args.tol, args.pair_index)
        return {
            "formula": args.formula,
            "exact": check.exact,
            "numeric": check.numeric,
            "agree": check.agree,
            "tolerance": args.tol,
        }

    return inputs, execute


def _cmd_approx_beta(args):
    alpha = parse_vector(args.alpha)
    inputs = {"alpha": _format_vector(alpha)}

    def execute():
        from . import trig

        approx = trig.approximate_beta(alpha)
        return {
            "m": approx.m,
            "beta": list(approx.beta),
            "q": str(approx.q),
            "bound": str(approx.bound),
        }

    return inputs, execute


def _cmd_primes(args):
    pair = _parse_pair(args.pair)
    inputs = {"n": args.n, "pair": [pair.i, pair.j], "method": args.method}

    def execute():
        from . import invariants, primes

        direct = via_mobius = None
        if args.method in ("direct", "both"):
            # the pair is refused before prime_alpha's survey builds a table
            pair.validate(primes._check_n(args.n))
            example = primes.prime_alpha(args.n)
            direct = invariants.signed_count(example.alpha, pair)
        if args.method in ("moebius", "both"):
            via_mobius = primes.mobius_sum(args.n, pair.i, pair.j)
        agree = None
        if direct is not None and via_mobius is not None:
            agree = direct == via_mobius
        return {
            "n": args.n,
            "pair": [pair.i, pair.j],
            "N_direct": direct,
            "N_moebius": via_mobius,
            "agree": agree,
        }

    return inputs, execute


def _cmd_wall_cross(args):
    alpha = parse_vector(args.alpha)
    pair = _parse_pair(args.pair)
    delta = None
    if args.delta is not None:
        delta = _parse_rational(args.delta, "delta")
    inputs = {
        "alpha": _format_vector(alpha),
        "l": args.l,
        "pair": [pair.i, pair.j],
    }
    if delta is not None:
        inputs["delta"] = str(delta)

    def execute():
        from . import invariants

        crossing = invariants.wall_crossing_check(alpha, args.l, pair, delta)
        return {
            "jump_N": crossing.jump_signed,
            "jump_count": crossing.jump_count,
            "predicted_N": crossing.predicted_signed,
            "predicted_count": crossing.predicted_count,
            "delta": str(crossing.delta),
            "wall_solutions": _sign_rows(crossing.wall_masks, alpha.m),
        }

    return inputs, execute


def _cmd_rademacher(args):
    t = _parse_rational(args.t, "t")
    inputs = {"i": args.i, "t": str(t)}

    def execute():
        from . import trig

        return {"value": trig.rademacher(args.i, t)}

    return inputs, execute


# One option of a subcommand: the field it sets, the converter of its value
# (None keeps the text), whether it is required, else its default, the
# values it accepts (None: any; of a mapping, its keys) and whether it is a
# flag, taking no value.
_Option = namedtuple(
    "_Option",
    "field convert required default choices flag",
    defaults=(None, False, None, None, False),
)

# One subcommand: the handler that takes its parsed fields to its inputs
# and its operation, and its options by name.
_Command = namedtuple("_Command", "handler options")

_ALPHA = {"--alpha": _Option("alpha", required=True)}

_COMMANDS = {
    "compute": _Command(
        _cmd_compute,
        {
            **_ALPHA,
            "--pair": _Option("pair", required=True),
            "--solutions": _Option("solutions", default=False, flag=True),
        },
    ),
    "verify": _Command(_cmd_verify, _ALPHA),
    "closed-form": _Command(_cmd_closed_form, {**_ALPHA, "--pair": _Option("pair")}),
    "weights": _Command(_cmd_weights, {"--m": _Option("m", int, required=True)}),
    "shorten": _Command(
        _cmd_shorten,
        {
            **_ALPHA,
            "--j": _Option("j", int, required=True),
            "--k": _Option("k", int, required=True),
            "--sign": _Option("sign", required=True, choices=("+", "-")),
        },
    ),
    "verify-shortening": _Command(
        _cmd_verify_shortening,
        {
            **_ALPHA,
            # each identity: its index count and its verifier in shortening
            "--identity": _Option(
                "identity",
                required=True,
                choices={
                    "count-split": (3, "verify_count_split"),
                    "signed-even": (3, "verify_signed_split_even"),
                    "count-general": (4, "verify_count_split_general"),
                    "signed-odd": (3, "verify_signed_split_odd"),
                },
            ),
            "--indices": _Option("indices", required=True),
        },
    ),
    "integral": _Command(
        _cmd_integral,
        {
            "--beta": _Option("beta", required=True),
            "--formula": _Option(
                "formula", required=True, choices=("result", "result1", "result2")
            ),
            "--pair-index": _Option("pair_index", int),
            "--quadrature": _Option("quadrature", default=False, flag=True),
            "--tol": _Option("tol", float, default=1e-8),
        },
    ),
    "approx-beta": _Command(_cmd_approx_beta, _ALPHA),
    "primes": _Command(
        _cmd_primes,
        {
            "--n": _Option("n", int, required=True),
            "--pair": _Option("pair", default="1,2"),
            "--method": _Option(
                "method", default="both", choices=("direct", "moebius", "both")
            ),
        },
    ),
    "wall-cross": _Command(
        _cmd_wall_cross,
        {
            **_ALPHA,
            "--l": _Option("l", int, required=True),
            "--pair": _Option("pair", required=True),
            "--delta": _Option("delta"),
        },
    ),
    "rademacher": _Command(
        _cmd_rademacher,
        {"--i": _Option("i", int, required=True), "--t": _Option("t", required=True)},
    ),
}

# Tokens that start with "-" but are values: negative numbers and anything
# with a space.  A lone "-" is a value too, and "--" ends the options.
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _unknown_option(token: str) -> bool:
    return (
        len(token) > 1
        and token[0] == "-"
        and not _NEGATIVE_NUMBER.match(token)
        and " " not in token
    )


def _classify(token: str, options):
    """A subcommand token as (name, inline value) of an option, with name
    None for an unknown option, or None for a value.

    An option is named in full or by a unique prefix, with its value
    inline after "=" or as the next token.
    """
    if token in options:
        return token, None
    if token[:1] != "-" or len(token) == 1:
        return None
    prefix, eq, inline = token.partition("=")
    if eq and prefix in options:
        return prefix, inline
    if token.startswith("--"):
        matches = [name for name in options if name.startswith(prefix)]
        if len(matches) > 1:
            raise ParseError(
                f"ambiguous option: {token} could match {', '.join(matches)}"
            )
        if matches:
            return matches[0], inline if eq else None
    return (None, None) if _unknown_option(token) else None


def _value(name: str, option, text: str):
    value = text
    if option.convert is not None:
        try:
            value = option.convert(text)
        except (TypeError, ValueError):
            raise ParseError(
                f"argument {name}: invalid {option.convert.__name__} value: {text!r}"
            ) from None
    if option.choices is not None and value not in option.choices:
        choices = ", ".join(map(repr, option.choices))
        raise ParseError(
            f"argument {name}: invalid choice: {value!r} (choose from {choices})"
        )
    return value


def _parse_args(argv, args=None) -> SimpleNamespace:
    """The command and its option fields, on argparse's grammar, set on
    ``args`` (a new namespace by default): ``args.command`` as soon as
    the command resolves, so a caller's namespace keeps it when an
    option then fails.

    Options before the command are unknown; the first value names the
    command.  Every token is classified before any is consumed, so an
    ambiguous prefix is reported first; then options are consumed left
    to right, the last repeat winning, and values that no option takes
    are unrecognized.  The messages are argparse's.
    """
    args = SimpleNamespace() if args is None else args
    extras = []
    pos = 0
    while pos < len(argv) and argv[pos] != "--" and _unknown_option(argv[pos]):
        extras.append(argv[pos])
        pos += 1
    if pos == len(argv) or argv[pos:] == ["--"]:
        raise ParseError("the following arguments are required: command")
    command, tokens = argv[pos], argv[pos + 1 :]
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        raise ParseError(
            f"argument command: invalid choice: {command!r} (choose from {choices})"
        )
    args.command = command
    options = _COMMANDS[command].options
    end = tokens.index("--") if "--" in tokens else len(tokens)
    kinds = [_classify(token, options) for token in tokens[:end]]
    if end < len(tokens):  # "--" itself is no value; every token after it is
        kinds += ["--"] + [None] * (len(tokens) - end - 1)
    fields = {}
    i = 0
    while i < len(tokens):
        name, inline = kinds[i] if isinstance(kinds[i], tuple) else (None, None)
        i += 1
        if name is None:
            extras.append(tokens[i - 1])
            continue
        option = options[name]
        if option.flag:
            if inline is not None:
                raise ParseError(f"argument {name}: ignored explicit argument {inline!r}")
            fields[option.field] = True
        elif inline is not None:
            fields[option.field] = _value(name, option, inline)
        elif i < len(tokens) and kinds[i] is None:
            fields[option.field] = _value(name, option, tokens[i])
            i += 1
        else:
            raise ParseError(f"argument {name}: expected one argument")
    missing = [
        name
        for name, option in options.items()
        if option.required and option.field not in fields
    ]
    if missing:
        raise ParseError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise ParseError(f"unrecognized arguments: {' '.join(extras)}")
    for option in options.values():
        fields.setdefault(option.field, option.default)
    vars(args).update(fields)
    return args


def run(argv) -> CommandResult:
    """Parse, dispatch, serialize, and fold any failure into the result
    envelope, whose command is the one the arguments resolved, else None.

    An output integer longer than the interpreter's digit limit for
    string conversion cannot be printed, so it is a precondition failure.
    """
    return _envelope(argv)[0]


def _envelope(argv) -> tuple[CommandResult, str]:
    """``run``'s result and its JSON text, serialized once."""
    args = SimpleNamespace(command=None)
    inputs = None
    try:
        _parse_args(list(argv), args)
        inputs, execute = _COMMANDS[args.command].handler(args)
        try:
            result = CommandResult(args.command, inputs, execute(), None, 0)
            return result, result.to_json()
        except ValueError as exc:
            if "integer string conversion" not in str(exc):
                raise
            raise PreconditionError(
                "an output exceeds the"
                f" {sys.get_int_max_str_digits()}-digit integer limit"
            ) from None
    except ParseError as exc:
        result = CommandResult(
            args.command, inputs, None, {"type": "parse", "message": str(exc)}, 2
        )
    except DegenerateVectorError as exc:
        error = {
            "type": "degenerate",
            "message": str(exc),
            "witness": list(exc.witness.signs()),
        }
        result = CommandResult(args.command, inputs, None, error, 3)
    except PreconditionError as exc:
        result = CommandResult(
            args.command,
            inputs,
            None,
            {"type": "precondition", "message": str(exc)},
            3,
        )
    except SignsumError as exc:  # InternalCheckError and any other bug
        result = CommandResult(
            args.command, inputs, None, {"type": "internal", "message": str(exc)}, 4
        )
    return result, result.to_json()


def main(argv=None) -> int:
    result, text = _envelope(sys.argv[1:] if argv is None else argv)
    sys.stdout.write(text + "\n")
    if result.error is not None:
        sys.stderr.write(result.error["message"] + "\n")
    return result.exit_code
