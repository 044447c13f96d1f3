"""Command-line front end: one subcommand per operation, JSON out.

Every invocation prints exactly one JSON document to stdout, shaped by
the envelope in ``cli_schema.json``: command echo, normalized inputs,
operation outputs, error, exit code.  Exit codes: 0 success, 2 malformed
input, 3 precondition violation (including a degenerate vector, with the
witness sign vector in the error object), 4 failed internal assertion.
Output bytes are deterministic for identical inputs, worker count
included.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    AlphaVector,
    DegenerateVectorError,
    InternalCheckError,
    PairSelection,
    ParseError,
    PreconditionError,
    SignsumError,
    SignVector,
    format_scalar,
    parse_vector,
)
from . import invariants, primes, shortening, trig, weights

__all__ = ["CommandResult", "run", "main"]

_COMMANDS = (
    "compute",
    "verify",
    "closed-form",
    "weights",
    "shorten",
    "verify-shortening",
    "integral",
    "approx-beta",
    "primes",
    "wall-cross",
    "rademacher",
)


@dataclass(frozen=True)
class CommandResult:
    command: str | None
    inputs: dict | None
    outputs: dict | None
    error: dict | None
    exit_code: int

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "error": self.error,
            "exit_code": self.exit_code,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class _Parser(argparse.ArgumentParser):
    # surface argparse failures as ParseError so they reach the envelope
    def error(self, message):
        raise ParseError(message)


def _format_vector(alpha: AlphaVector) -> str:
    return ",".join(format_scalar(c) for c in alpha.components)


def _parse_pair(text: str) -> PairSelection:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError("pair must be two comma-separated indices")
    try:
        i, j = (int(p.strip()) for p in parts)
    except ValueError:
        raise ParseError(f"malformed pair {text!r}") from None
    return PairSelection(i, j)


def _parse_int_list(text: str, what: str) -> list[int]:
    parts = text.split(",")
    if not parts or any(not p.strip() for p in parts):
        raise ParseError(f"{what} must be a comma-separated list of integers")
    try:
        return [int(p.strip()) for p in parts]
    except ValueError:
        raise ParseError(f"malformed {what} {text!r}") from None


def _parse_rational(text: str, what: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"malformed {what} {text!r}") from None


def _sign_rows(sign_vectors) -> list[list[int]]:
    return [list(sv.signs()) for sv in sign_vectors]


def _cmd_compute(args):
    alpha = parse_vector(args.alpha)
    pair = _parse_pair(args.pair)
    inputs = {
        "alpha": _format_vector(alpha),
        "pair": [pair.i, pair.j],
        "solutions": bool(args.solutions),
    }

    def execute():
        # one scan, materialized only when the rows are asked for
        if not args.solutions:
            row = invariants.pair_invariants(alpha, pair)
            return {"N": row.signed, "count": row.count, "parity": row.parity}
        sols = invariants.enumerate_solutions(alpha, pair)
        count = len(sols.solutions)
        return {
            "N": sols.signed,
            "count": count,
            "parity": count & 1,
            "solutions": _sign_rows(sols.solutions),
            "coordinates": [
                alpha.original_index(p)
                for p in range(alpha.m)
                if p not in (pair.i - 1, pair.j - 1)
            ],
        }

    return inputs, execute


def _cmd_verify(args):
    alpha = parse_vector(args.alpha)
    inputs = {"alpha": _format_vector(alpha)}

    def execute():
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


_IDENTITY_ARITY = {
    "count-split": 3,
    "signed-even": 3,
    "count-general": 4,
    "signed-odd": 3,
}


def _cmd_verify_shortening(args):
    alpha = parse_vector(args.alpha)
    indices = _parse_int_list(args.indices, "indices")
    arity = _IDENTITY_ARITY[args.identity]
    if len(indices) != arity:
        raise ParseError(f"identity {args.identity} takes {arity} indices")
    inputs = {
        "alpha": _format_vector(alpha),
        "identity": args.identity,
        "indices": indices,
    }

    def execute():
        if args.identity == "count-split":
            holds = shortening.verify_count_split(alpha, *indices)
            return {"identity": args.identity, "holds": holds}
        if args.identity == "signed-even":
            holds = shortening.verify_signed_split_even(alpha, *indices)
            return {"identity": args.identity, "holds": holds}
        if args.identity == "count-general":
            holds = shortening.verify_count_split_general(alpha, *indices)
            return {"identity": args.identity, "holds": holds}
        orientation, holds = shortening.verify_signed_split_odd(alpha, *indices)
        return {
            "identity": args.identity,
            "holds": holds,
            "orientation": orientation,
        }

    return inputs, execute


def _cmd_integral(args):
    beta_list = _parse_int_list(args.beta, "beta")
    inputs = {"beta": beta_list, "formula": args.formula}
    if args.pair_index is not None:
        inputs["pair_index"] = args.pair_index
    if args.quadrature:
        inputs["quadrature"] = True
        inputs["tolerance"] = args.tol

    def execute():
        beta = trig.integer_beta(beta_list)
        exact = trig.exact_formula_value(beta, args.formula, args.pair_index)
        outputs = {"formula": args.formula, "exact": exact}
        if args.quadrature:
            check = trig.quadrature_check(
                beta, args.formula, args.tol, args.pair_index
            )
            outputs["numeric"] = check.numeric
            outputs["agree"] = check.agree
            outputs["tolerance"] = args.tol
        return outputs

    return inputs, execute


def _cmd_approx_beta(args):
    alpha = parse_vector(args.alpha)
    inputs = {"alpha": _format_vector(alpha)}

    def execute():
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
        direct = via_mobius = None
        if args.method in ("direct", "both"):
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
        crossing = invariants.wall_crossing_check(alpha, args.l, pair, delta)
        return {
            "jump_N": crossing.jump_signed,
            "jump_count": crossing.jump_count,
            "predicted_N": crossing.predicted_signed,
            "predicted_count": crossing.predicted_count,
            "delta": str(crossing.delta),
            "wall_solutions": [
                list(SignVector(alpha.m, mask, None).signs())
                for mask in crossing.wall_masks
            ],
        }

    return inputs, execute


def _cmd_rademacher(args):
    t = _parse_rational(args.t, "t")
    inputs = {"i": args.i, "t": str(t)}

    def execute():
        return {"value": trig.rademacher(args.i, t)}

    return inputs, execute


_HANDLERS = {
    "compute": _cmd_compute,
    "verify": _cmd_verify,
    "closed-form": _cmd_closed_form,
    "weights": _cmd_weights,
    "shorten": _cmd_shorten,
    "verify-shortening": _cmd_verify_shortening,
    "integral": _cmd_integral,
    "approx-beta": _cmd_approx_beta,
    "primes": _cmd_primes,
    "wall-cross": _cmd_wall_cross,
    "rademacher": _cmd_rademacher,
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="signsum", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True

    p = sub.add_parser("compute", help="pair invariants of one vector")
    p.add_argument("--alpha", required=True)
    p.add_argument("--pair", required=True)
    p.add_argument("--solutions", action="store_true")

    p = sub.add_parser("verify", help="all pairs plus cross-pair laws")
    p.add_argument("--alpha", required=True)

    p = sub.add_parser("closed-form", help="sign-sum closed forms")
    p.add_argument("--alpha", required=True)
    p.add_argument("--pair")

    p = sub.add_parser("weights", help="pair-independent weight space")
    p.add_argument("--m", type=int, required=True)

    p = sub.add_parser("shorten", help="replace one component, delete another")
    p.add_argument("--alpha", required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--sign", choices=("+", "-"), required=True)

    p = sub.add_parser("verify-shortening", help="splitting identities")
    p.add_argument("--alpha", required=True)
    p.add_argument(
        "--identity", choices=tuple(_IDENTITY_ARITY), required=True
    )
    p.add_argument("--indices", required=True)

    p = sub.add_parser("integral", help="exact kernel integral formulas")
    p.add_argument("--beta", required=True)
    p.add_argument(
        "--formula", choices=("result", "result1", "result2"), required=True
    )
    p.add_argument("--pair-index", type=int, dest="pair_index")
    p.add_argument("--quadrature", action="store_true")
    p.add_argument("--tol", type=float, default=1e-8)

    p = sub.add_parser("approx-beta", help="integer approximation search")
    p.add_argument("--alpha", required=True)

    p = sub.add_parser("primes", help="prime-log family, both routes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pair", default="1,2")
    p.add_argument(
        "--method", choices=("direct", "moebius", "both"), default="both"
    )

    p = sub.add_parser("wall-cross", help="jumps across a degeneracy wall")
    p.add_argument("--alpha", required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--pair", required=True)
    p.add_argument("--delta")

    p = sub.add_parser("rademacher", help="binary-digit sign function")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--t", required=True)

    return parser


def _command_token(argv) -> str | None:
    for token in argv:
        if token in _COMMANDS:
            return token
    return None


def run(argv) -> CommandResult:
    """Parse, dispatch, and fold any failure into the result envelope."""
    argv = list(argv)
    command = _command_token(argv)
    inputs = None
    try:
        args = _build_parser().parse_args(argv)
        command = args.command
        inputs, execute = _HANDLERS[command](args)
        outputs = execute()
        return CommandResult(command, inputs, outputs, None, 0)
    except ParseError as exc:
        return CommandResult(
            command, inputs, None, {"type": "parse", "message": str(exc)}, 2
        )
    except DegenerateVectorError as exc:
        error = {
            "type": "degenerate",
            "message": str(exc),
            "witness": list(exc.witness.signs()),
        }
        return CommandResult(command, inputs, None, error, 3)
    except PreconditionError as exc:
        return CommandResult(
            command,
            inputs,
            None,
            {"type": "precondition", "message": str(exc)},
            3,
        )
    except InternalCheckError as exc:
        return CommandResult(
            command, inputs, None, {"type": "internal", "message": str(exc)}, 4
        )
    except SignsumError as exc:  # base-class fallback, still an internal bug
        return CommandResult(
            command, inputs, None, {"type": "internal", "message": str(exc)}, 4
        )


def main(argv=None) -> int:
    result = run(sys.argv[1:] if argv is None else argv)
    sys.stdout.write(result.to_json() + "\n")
    if result.error is not None:
        sys.stderr.write(result.error["message"] + "\n")
    return result.exit_code
