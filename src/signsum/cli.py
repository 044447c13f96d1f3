"""Command-line front end: one subcommand per operation, JSON out.

Every invocation prints exactly one JSON document to stdout, shaped by
the envelope in ``cli_schema.json``: command echo, normalized inputs,
operation outputs, error, exit code.  Exit codes: 0 success, 2 malformed
input, 3 precondition violation (including a degenerate vector, with the
witness sign vector in the error object), 4 failed internal assertion.
Output bytes are deterministic for identical inputs.

Each subcommand's handler, ``_cmd_<command>(args, inputs)`` in its
operation module, fills ``inputs`` once its fields parse and returns the
outputs; an error raised before the fill echoes null inputs.

``run(argv)`` returns the envelope and ``main(argv)`` writes it and
returns the exit code; neither freezes the heap.  The process entry,
``signsum.__main__.entry``, calls ``main()`` and then ``gc.freeze()``,
so the process skips CPython's exit-time collection.
"""

from __future__ import annotations

import json
import re
import sys
from collections import namedtuple
from importlib import import_module
from types import SimpleNamespace

from .core import (
    DegenerateVectorError,
    ParseError,
    PreconditionError,
    SignsumError,
)

__all__ = ["CommandResult", "run", "main"]


class CommandResult(
    namedtuple("CommandResult", "command inputs outputs error exit_code")
):
    """One invocation's envelope: command, inputs, outputs, error, exit code."""

    __slots__ = ()

    def to_json(self) -> str:
        return json.dumps(self._asdict(), sort_keys=True, separators=(",", ":"))


# One option of a subcommand: the converter of its value (None keeps the
# text), whether it is required, else its default, the values it accepts
# (None: any; of a mapping, its keys) and whether it is a flag, taking no
# value.  It sets the field named as argparse's dest: the option's name
# without "--" and with "-" as "_".
_Option = namedtuple(
    "_Option",
    "convert required default choices flag",
    defaults=(None, False, None, None, False),
)

# One subcommand: the operation module that holds its handler, and its
# options by name.  The handler, ``_cmd_<command>(args, inputs)`` with "-"
# as "_", parses the fields, fills the empty ``inputs`` dict with their
# normalized echo, then runs the operation and returns its outputs; it is
# looked up only when the command runs, so a cold process compiles just
# that module and what it imports.
_Command = namedtuple("_Command", "module options")

_ALPHA = {"--alpha": _Option(required=True)}

_COMMANDS = {
    "compute": _Command(
        "invariants",
        {
            **_ALPHA,
            "--pair": _Option(required=True),
            "--solutions": _Option(default=False, flag=True),
        },
    ),
    "verify": _Command("invariants", _ALPHA),
    "closed-form": _Command("forms", {**_ALPHA, "--pair": _Option()}),
    "weights": _Command("weights", {"--m": _Option(int, required=True)}),
    "shorten": _Command(
        "shortening",
        {
            **_ALPHA,
            "--j": _Option(int, required=True),
            "--k": _Option(int, required=True),
            "--sign": _Option(required=True, choices=("+", "-")),
        },
    ),
    "verify-shortening": _Command(
        "shortening",
        {
            **_ALPHA,
            # the names of shortening._IDENTITIES, which holds each verifier
            "--identity": _Option(
                required=True,
                choices=("count-split", "signed-even", "count-general", "signed-odd"),
            ),
            "--indices": _Option(required=True),
        },
    ),
    "integral": _Command(
        "trig",
        {
            "--beta": _Option(required=True),
            "--formula": _Option(
                required=True, choices=("result", "result1", "result2")
            ),
            "--pair-index": _Option(int),
            "--quadrature": _Option(default=False, flag=True),
            "--tol": _Option(float, default=1e-8),
        },
    ),
    "approx-beta": _Command("trig", _ALPHA),
    "primes": _Command(
        "primes",
        {
            "--n": _Option(int, required=True),
            "--pair": _Option(default="1,2"),
            "--method": _Option(default="both", choices=("direct", "moebius", "both")),
        },
    ),
    "wall-cross": _Command(
        "walls",
        {
            **_ALPHA,
            "--l": _Option(int, required=True),
            "--pair": _Option(required=True),
            "--delta": _Option(),
        },
    ),
    "rademacher": _Command(
        "trig",
        {"--i": _Option(int, required=True), "--t": _Option(required=True)},
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
    given = {}
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
            given[name] = True
        elif inline is not None:
            given[name] = _value(name, option, inline)
        elif i < len(tokens) and kinds[i] is None:
            given[name] = _value(name, option, tokens[i])
            i += 1
        else:
            raise ParseError(f"argument {name}: expected one argument")
    missing = [n for n, opt in options.items() if opt.required and n not in given]
    if missing:
        raise ParseError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise ParseError(f"unrecognized arguments: {' '.join(extras)}")
    for name, option in options.items():
        # argparse's dest: the name without "--" and with "-" as "_"
        setattr(args, name[2:].replace("-", "_"), given.get(name, option.default))
    return args


# The envelope's error type and exit code of each error class, the first
# row that matches winning: a degenerate vector is a precondition failure
# that also names its witness, and the last row takes InternalCheckError
# and any other bug.
_ERRORS = {
    ParseError: ("parse", 2),
    DegenerateVectorError: ("degenerate", 3),
    PreconditionError: ("precondition", 3),
    SignsumError: ("internal", 4),
}


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
    inputs = {}
    try:
        _parse_args(list(argv), args)
        module = import_module(f".{_COMMANDS[args.command].module}", __package__)
        handler = getattr(module, "_cmd_" + args.command.replace("-", "_"))
        try:
            result = CommandResult(args.command, inputs, handler(args, inputs), None, 0)
            return result, result.to_json()
        except ValueError as exc:
            if "integer string conversion" not in str(exc):
                raise
            raise PreconditionError(
                "an output exceeds the"
                f" {sys.get_int_max_str_digits()}-digit integer limit"
            ) from None
    except SignsumError as exc:
        kind, code = next(row for cls, row in _ERRORS.items() if isinstance(exc, cls))
        error = {"type": kind, "message": str(exc)}
        if kind == "degenerate":
            error["witness"] = list(exc.witness.signs())
        result = CommandResult(args.command, inputs or None, None, error, code)
    return result, result.to_json()


def main(argv=None) -> int:
    result, text = _envelope(sys.argv[1:] if argv is None else argv)
    sys.stdout.write(text + "\n")
    if result.error is not None:
        sys.stderr.write(result.error["message"] + "\n")
    return result.exit_code
