"""Per-layer metrics from the spans of traced requests.

Each ``_s`` metric is a group of public functions timed either inclusively
(outermost spans of the group, so nested calls are not counted twice) or
by self time (span duration minus the time its direct child spans cover).
Values are seconds per traced request; ``<name>_calls`` counts the calls.
"""

from __future__ import annotations

import math

TIMED = {
    "cli.self_s": ("self", ["cli.run"]),
    "core.parse_s": ("incl", ["core.parse_vector"]),
    "core.check_generic_s": ("self", ["core.check_generic"]),
    "invariants.scan_s": ("self", [
        "invariants.signed_count", "invariants.count_solutions",
        "invariants.parity", "invariants.enumerate_solutions",
        "invariants.extended_signed_count"]),
    "invariants.verify_s": ("incl", ["invariants.verify_invariance"]),
    "invariants.closed_form_s": ("incl", [
        "invariants.closed_form_g", "invariants.count_via_sign_sum",
        "invariants.signed_count_even_via_sign_sum"]),
    "invariants.wall_cross_s": ("incl", ["invariants.wall_crossing_check"]),
    "shortening.verify_s": ("incl", [
        "shortening.verify_count_split", "shortening.verify_signed_split_even",
        "shortening.verify_count_split_general",
        "shortening.verify_signed_split_odd"]),
    "trig.approx_beta_s": ("incl", ["trig.approximate_beta"]),
    "trig.integer_beta_s": ("incl", ["trig.integer_beta"]),
    "trig.kernel_s": ("incl", [
        "trig.exact_formula_value", "trig.integral_N_odd",
        "trig.integral_N_even", "trig.integral_count"]),
    "trig.quadrature_s": ("incl", ["trig.quadrature_check"]),
    "weights.build_s": ("incl", ["weights.build_constraints"]),
    "weights.solve_s": ("self", ["weights.solve_weight_space"]),
    "primes.prime_alpha_s": ("incl", ["primes.prime_alpha"]),
    "primes.mobius_s": ("incl", ["primes.mobius_sum"]),
}

SCANS = set(TIMED["invariants.scan_s"][1])

# Computed counts, with units: derived from call structure, inputs and
# returned values, never from a clock, so they repeat exactly for the same
# code and seed.
COUNTS = {
    "cli.stdout_bytes": "bytes",
    "cli.errors": "count",
    "core.survey_masks": "count",
    "invariants.masks_scanned": "count",
    "invariants.scans_per_request": "ratio",
    "invariants.solution_ratio": "ratio",
    "trig.q_doublings": "count",
    "trig.kernel_terms": "count",
    "weights.constraint_rows": "count",
}


def _duration(span) -> float:
    return span[2] - span[1]


def layer_times(spans: list[list]) -> dict[str, tuple[float, int]]:
    """(seconds, calls) per timed metric for one request's spans."""
    children: dict[int, float] = {}
    for span in spans:
        if span[3] >= 0:
            children[span[3]] = children.get(span[3], 0.0) + _duration(span)
    out = {}
    for metric, (mode, names) in TIMED.items():
        group = set(names)
        total, calls = 0.0, 0
        for idx, span in enumerate(spans):
            if span[0] not in group:
                continue
            calls += 1
            if mode == "self":
                total += _duration(span) - children.get(idx, 0.0)
            elif not _has_ancestor_in(spans, span, group):
                total += _duration(span)
        out[metric] = (total, calls)
    return out


def _has_ancestor_in(spans, span, group) -> bool:
    parent = span[3]
    while parent >= 0:
        if spans[parent][0] in group:
            return True
        parent = spans[parent][3]
    return False


def span_counts(spans: list[list]) -> dict[str, int]:
    """Survey masks, pair-scan masks, scan calls and constraint rows.

    A survey is the first check_generic call on a vector object (the
    result is cached on the vector after that) and covers 2^(m-1) masks.
    Each public scan call covers one pair, verify_invariance covers every
    pair of its vector and wall_crossing_check two perturbed copies; each
    pair is 2^(m-2) masks.
    """
    surveyed = set()
    survey = scanned = scans = rows = 0
    for name, _, _, _, _, m, key, size in spans:
        if name == "core.check_generic" and key not in surveyed:
            surveyed.add(key)
            survey += 1 << (m - 1)
        elif name in SCANS:
            scans += 1
            scanned += 1 << (m - 2)
        elif name == "invariants.verify_invariance":
            scanned += math.comb(m, 2) << (m - 2)
        elif name == "invariants.wall_crossing_check":
            scanned += 2 << (m - 2)
        elif name == "weights.build_constraints":
            rows += size
    return {"core.survey_masks": survey, "invariants.masks_scanned": scanned,
            "scan_calls": scans, "weights.constraint_rows": rows}


class Counts:
    """Computed counts summed over the traced requests."""

    def __init__(self):
        self.values = dict.fromkeys(COUNTS, 0)
        self.scan_calls = self.compute_requests = 0
        self.found = self.attempts = 0

    def add(self, argv, envelope: dict, stdout_bytes: int, spans, kernel_terms: int):
        v = self.values
        sc = span_counts(spans)
        for key in ("core.survey_masks", "invariants.masks_scanned",
                    "weights.constraint_rows"):
            v[key] += sc[key]
        v["cli.stdout_bytes"] += stdout_bytes
        v["cli.errors"] += envelope["exit_code"] != 0
        v["trig.kernel_terms"] += kernel_terms
        command, out = envelope["command"], envelope["outputs"]
        if command == "compute":
            self.compute_requests += 1
            self.scan_calls += sc["scan_calls"]
        if out is None:
            return
        if command in ("compute", "verify"):  # useful / attempted masks
            m = len(argv[argv.index("--alpha") + 1].split(","))
            rows = [out] if command == "compute" else out["rows"]
            self.found += sum(row["count"] for row in rows)
            self.attempts += len(rows) << (m - 2)
        elif command == "approx-beta":
            v["trig.q_doublings"] += int(out["q"]).bit_length() - 1

    def result(self) -> dict:
        v = dict(self.values)
        v["invariants.scans_per_request"] = (
            self.scan_calls / self.compute_requests if self.compute_requests else 0.0)
        v["invariants.solution_ratio"] = (
            self.found / self.attempts if self.attempts else 0.0)
        return v


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(signsum seconds, mpmath seconds) from ``python -X importtime``.

    signsum: cumulative time of the top-level signsum imports; mpmath:
    cumulative time of the mpmath package wherever it was first imported.
    """
    total = mp = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        field = parts[2][1:]
        name = field.strip()
        depth = len(field) - len(field.lstrip(" "))
        cumulative = int(parts[1])
        if depth == 0 and (name == "signsum" or name.startswith("signsum.")):
            total += cumulative
        if name == "mpmath":
            mp += cumulative
    return total / 1e6, mp / 1e6
