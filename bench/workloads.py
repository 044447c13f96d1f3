"""Seeded request generators for the two workloads, with expected answers.

A workload is a fixed cycle of request slots (kind and size).  Each cycle
draws fresh values from the seeded generator and shuffles the slot order,
so every whole cycle has the same mix of kinds and sizes whatever the
seed.  A run goes through whole cycles, so its latency distribution is
the cycle's, up to the part of one cycle where its time runs out.

Every request carries a ``check`` that compares the response envelope
with the oracle's answer and returns a failure reason or None.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracle

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
          67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113)


@dataclass(frozen=True)
class Vec:
    values: tuple[Fraction, ...]
    is_log: bool

    @property
    def m(self) -> int:
        return len(self.values)

    def fmt(self, v: Fraction) -> str:
        return f"log:{v}" if self.is_log else str(v)

    def text(self) -> str:
        return ",".join(self.fmt(v) for v in self.values)


@dataclass
class Request:
    kind: str
    argv: list[str]
    check: Callable[[dict], str | None]
    # (sine, cosine) frequencies of an integral request's kernel expansion
    kernel: tuple | None = None


# ---------------------------------------------------------------------------
# Vector generators


def plain_vec(rng, m) -> Vec:
    """Generic vector of integers up to 1e6 with two proper fractions
    (denominators up to 100), so the program's lcm scaling runs."""
    while True:
        vals = [Fraction(rng.randint(1, 10**6)) for _ in range(m)]
        for p in rng.sample(range(m), 2):
            d = rng.randint(2, 100)
            vals[p] = Fraction(rng.randint(1, 10**6) * d + rng.randint(1, d - 1), d)
        vec = Vec(tuple(vals), False)
        if oracle.is_generic(vec):
            return vec


def degenerate_vec(rng, m) -> Vec:
    """Vector with one component equal to a signed sum of the others."""
    while True:
        base = list(plain_vec(rng, m).values)
        p = rng.randrange(m)
        total = sum(rng.choice((1, -1)) * v for k, v in enumerate(base) if k != p)
        if total != 0:
            base[p] = abs(total)
            return Vec(tuple(base), False)


def near_wall_vec(rng, m) -> Vec:
    """Generic vector with one signed sum within 1/d of zero (d <= 100),
    so approx-beta has to double q several times."""
    while True:
        vals = [Fraction(rng.randint(1, 10**6)) for _ in range(m)]
        p = rng.randrange(m)
        total = sum(rng.choice((1, -1)) * v for k, v in enumerate(vals) if k != p)
        vals[p] = abs(total) + Fraction(1, rng.randint(2, 100))
        vec = Vec(tuple(vals), False)
        if oracle.is_generic(vec):
            return vec


def log_vec(rng, m) -> Vec:
    """Generic log vector of ratios p/q > 1 with denominators up to 9."""
    while True:
        vals = []
        for _ in range(m):
            q = rng.randint(2, 9)
            vals.append(Fraction(rng.randint(q + 1, 1000), q))
        vec = Vec(tuple(vals), True)
        if all(v > 1 for v in vals) and any(v.denominator > 1 for v in vals):
            if oracle.is_generic(vec):
                return vec


def prime_vec(rng, m) -> Vec:
    """Logs of distinct primes: generic by unique factorization."""
    return Vec(tuple(Fraction(p) for p in rng.sample(PRIMES, m)), True)


def int_vec(rng, m, top=10**6) -> Vec:
    while True:
        vec = Vec(tuple(Fraction(rng.randint(1, top)) for _ in range(m)), False)
        if len(set(vec.values)) == m and oracle.is_generic(vec):
            return vec


def _pair(rng, m) -> tuple[int, int]:
    i0, j0 = sorted(rng.sample(range(m), 2))
    return i0, j0


# ---------------------------------------------------------------------------
# Checks


def _ok_outputs(env: dict, command: str, expected: dict) -> str | None:
    if env.get("command") != command:
        return f"command {env.get('command')!r}, expected {command!r}"
    if env.get("exit_code") != 0 or env.get("error") is not None:
        return f"exit {env.get('exit_code')}: {env.get('error')}"
    got = env.get("outputs")
    if got != expected:
        keys = sorted(k for k in set(got or {}) | set(expected)
                      if (got or {}).get(k) != expected.get(k))
        return f"outputs differ at {keys}"
    return None


def _exact(command: str, expected_fn: Callable[[], dict]):
    return lambda env: _ok_outputs(env, command, expected_fn())


# ---------------------------------------------------------------------------
# Requests, one constructor per slot kind


def compute_req(rng, vec: Vec, solutions=False, kind="compute") -> Request:
    m = vec.m
    i0, j0 = _pair(rng, m)

    def expected():
        res = oracle.pair(vec, i0, j0, rows=solutions)
        out = {"N": res.signed, "count": res.count, "parity": res.count & 1}
        if solutions:
            out["solutions"] = [
                [-1 if (mask >> k) & 1 else 1 for k in range(m - 2)]
                for mask in res.masks
            ]
            out["coordinates"] = [p + 1 for p in range(m) if p not in (i0, j0)]
        return out

    argv = ["compute", "--alpha", vec.text(), "--pair", f"{i0 + 1},{j0 + 1}"]
    if solutions:
        argv.append("--solutions")
    return Request(kind, argv, _exact("compute", expected))


def verify_expected(vec: Vec) -> dict:
    m = vec.m
    rows = []
    for i0, j0 in itertools.combinations(range(m), 2):
        res = oracle.pair(vec, i0, j0)
        rows.append({"pair": [i0 + 1, j0 + 1], "count": res.count,
                     "parity": res.count & 1, "N": res.signed})
    violations = []
    parity_invariant = len({r["parity"] for r in rows}) == 1
    if not parity_invariant:
        violations.append("parity differs across pairs")
    out = {"m": m, "parity_invariant": parity_invariant,
           "parity": rows[0]["parity"] if parity_invariant else None,
           "N_invariant": None, "N": None, "N_by_max_omitted": None,
           "abs_N_invariant": None, "rows": rows}
    vals = vec.values
    if m % 2:
        same = len({r["N"] for r in rows}) == 1
        out["N_invariant"] = same
        out["N"] = rows[0]["N"] if same else None
        if not same:
            violations.append("signed count differs across pairs (odd length)")
    else:
        by_max = {}
        for r in rows:
            i0, j0 = r["pair"][0] - 1, r["pair"][1] - 1
            key = vec.fmt(vals[j0] if vals[i0] <= vals[j0] else vals[i0])
            if key in by_max and by_max[key] != r["N"]:
                violations.append("signed count not a function of the larger component")
            by_max.setdefault(key, r["N"])
        out["N_by_max_omitted"] = by_max
    by_min = {}
    for r in rows:
        i0, j0 = r["pair"][0] - 1, r["pair"][1] - 1
        key = vec.fmt(vals[i0] if vals[i0] <= vals[j0] else vals[j0])
        if key in by_min and by_min[key] != r["count"]:
            violations.append("count not a function of the smaller component")
        by_min.setdefault(key, r["count"])
    out["count_by_min_omitted"] = by_min
    if m == 4:
        out["abs_N_invariant"] = len({abs(r["N"]) for r in rows}) == 1
        if not out["abs_N_invariant"]:
            violations.append("absolute signed count differs across pairs (m=4)")
    out["violations"] = violations
    return out


def verify_req(vec: Vec, kind="verify") -> Request:
    return Request(kind, ["verify", "--alpha", vec.text()],
                   _exact("verify", lambda: verify_expected(vec)))


def degenerate_req(rng, m) -> Request:
    vec = degenerate_vec(rng, m)

    def check(env):
        err = env.get("error") or {}
        if env.get("exit_code") != 3 or err.get("type") != "degenerate":
            return f"expected a degenerate envelope, got exit {env.get('exit_code')}"
        if env.get("outputs") is not None:
            return "degenerate envelope carries outputs"
        w = err.get("witness")
        if not isinstance(w, list) or len(w) != m or any(s not in (1, -1) for s in w):
            return f"malformed witness {w!r}"
        if sum(s * v for s, v in zip(w, vec.values)) != 0:
            return "witness signed sum is not zero"
        return None

    return Request("verify-degenerate", ["verify", "--alpha", vec.text()], check)


def closed_form_req(rng, vec: Vec) -> Request:
    m = vec.m
    i0, j0 = _pair(rng, m)

    def expected():
        res = oracle.pair(vec, i0, j0)
        out = {"count_via_sign_sum": res.count}
        if m % 2:
            out["g"] = res.signed  # pair independent for odd m
        else:
            out["g"] = 0
            out["N_via_sign_sum"] = res.signed
        return out

    argv = ["closed-form", "--alpha", vec.text(), "--pair", f"{i0 + 1},{j0 + 1}"]
    return Request("closed-form", argv, _exact("closed-form", expected))


def _order_ok(vals, betas) -> bool:
    for a, b in itertools.combinations(range(len(vals)), 2):
        if vals[a] == vals[b] and betas[a] != betas[b]:
            return False
        if vals[a] < vals[b] and betas[a] > betas[b]:
            return False
        if vals[a] > vals[b] and betas[a] < betas[b]:
            return False
    return True


def _beta_shape(out, m):
    """Parse (betas, q, bound) or return a failure reason."""
    try:
        betas = [int(b) for b in out["beta"]]
        q, bound = Fraction(out["q"]), Fraction(out["bound"])
    except (KeyError, TypeError, ValueError):
        return "malformed approx-beta outputs"
    if out.get("m") != m or len(betas) != m:
        return "wrong length"
    if q.denominator != 1 or q < 1 or q.numerator & (q.numerator - 1):
        return f"q={q} is not a power of two"
    if min(betas) < 1 or bound <= 0:
        return "nonpositive beta or bound"
    return betas, int(q), bound


def approx_beta_req(vec: Vec) -> Request:
    """Checks the defining properties: order and ties, every signed-sum
    sign, closeness |beta/q - alpha| < bound/m, and bound <= the gap."""
    m = vec.m

    def check(env):
        if env.get("command") != "approx-beta" or env.get("exit_code") != 0:
            return f"exit {env.get('exit_code')}: {env.get('error')}"
        shape = _beta_shape(env.get("outputs") or {}, m)
        if isinstance(shape, str):
            return shape
        betas, q, bound = shape
        if not _order_ok(vec.values, betas):
            return "order or ties not preserved"
        if vec.is_log:
            return _log_beta_fail(vec.values, betas, q, bound)
        return _plain_beta_fail(vec.values, betas, q, bound)

    return Request("approx-beta-log" if vec.is_log else "approx-beta",
                   ["approx-beta", "--alpha", vec.text()], check)


def _plain_beta_fail(vals, betas, q, bound):
    if bound != oracle.min_gap_plain(list(vals)):
        return "bound is not the minimum signed-sum gap"
    tol = bound / len(vals)
    if any(abs(Fraction(b, q) - v) >= tol for b, v in zip(betas, vals)):
        return "closeness bound violated"
    if not oracle.signs_agree_plain(list(vals), betas):
        return "a signed-sum sign changed"
    return None


def _log_beta_fail(ratios, betas, q, bound):
    if not oracle.log_exceeds(oracle.min_gap_ratio_log(list(ratios)), bound):
        return "bound exceeds the minimum signed-sum gap"
    tol = bound / len(ratios)
    if not all(oracle.log_within(r, Fraction(b, q), tol) for b, r in zip(betas, ratios)):
        return "closeness bound violated"
    if not oracle.signs_agree_log(list(ratios), betas):
        return "a signed-sum sign changed"
    return None


def integral_req(rng, m, formula, quadrature=False, top=10**6) -> Request:
    vec = int_vec(rng, m, top)
    b = [int(v) for v in vec.values]
    argv = ["integral", "--beta", ",".join(map(str, b)), "--formula", formula]
    index = None
    if formula == "result":
        kernel = (tuple(b), ())
    elif formula == "result1":  # larger pair member, so not the minimum
        index = rng.choice([k for k in range(m) if b[k] > min(b)])
        kernel = (tuple(v for k, v in enumerate(b) if k != index), (b[index],))
    else:  # result2: smaller pair member, so not the maximum
        index = rng.choice([k for k in range(m) if b[k] < max(b)])
        kernel = ((b[index],), tuple(v for k, v in enumerate(b) if k != index))
    if index is not None:
        argv += ["--pair-index", str(index + 1)]
    if quadrature:
        argv.append("--quadrature")

    def exact():
        if formula == "result":
            return oracle.pair(vec, 0, 1).signed if m % 2 else 0
        others = [k for k in range(m) if k != index]
        if formula == "result1":  # N depends only on the larger member
            partner = min(others, key=b.__getitem__)
            return oracle.pair(vec, *sorted((index, partner))).signed
        partner = max(others, key=b.__getitem__)  # count: smaller member
        return oracle.pair(vec, *sorted((index, partner))).count

    def check(env):
        out = env.get("outputs") or {}
        if env.get("command") != "integral" or env.get("exit_code") != 0:
            return f"exit {env.get('exit_code')}: {env.get('error')}"
        want = exact()
        if out.get("formula") != formula or out.get("exact") != want:
            return f"exact {out.get('exact')}, expected {want}"
        if quadrature:
            num = out.get("numeric")
            if out.get("agree") is not True or out.get("tolerance") != 1e-8:
                return "quadrature disagrees"
            if not isinstance(num, float) or not abs(num - want) < 1e-8:
                return f"quadrature value {num} is off"
        elif set(out) != {"formula", "exact"}:
            return "unexpected outputs"
        return None

    kind = "integral-quadrature" if quadrature else "integral"
    return Request(kind, argv, check, kernel=kernel)


def shortening_req(rng, identity, m) -> Request:
    """Vectors built to meet the identity's precondition; the identities
    are theorems, so the expected answer is that each holds."""
    top = 10**6
    while True:
        vals = [rng.randint(1, top) for _ in range(m)]
        if identity == "count-split":  # a_k + a_i <= a_j
            i, j, k = rng.sample(range(m), 3)
            vals[j] = vals[i] + vals[k] + rng.randint(1, top)
            idx = (i, j, k)
        elif identity == "signed-even":  # a_i <= a_j
            i, j, k = rng.sample(range(m), 3)
            if vals[i] > vals[j]:
                i, j = j, i
            idx = (i, j, k)
        elif identity == "count-general":  # a_i <= a_j, |a_r - a_s| >= a_i
            i, j, r, s = rng.sample(range(m), 4)
            vals[i] = rng.randint(1, top // 10)
            vals[j] = max(vals[j], vals[i] + 1)
            vals[r] = vals[s] + vals[i] + rng.randint(1, top)
            idx = (i, j, r, s)
        else:  # signed-odd: a_k <= |a_i - a_j|
            i, j, k = rng.sample(range(m), 3)
            vals[j] = vals[i] + vals[k] + rng.randint(1, top)
            idx = (i, j, k)
        vec = Vec(tuple(Fraction(v) for v in vals), False)
        if oracle.is_generic(vec):
            break
    expected = {"identity": identity, "holds": True}
    if identity == "signed-odd":
        expected["orientation"] = "stated"
    argv = ["verify-shortening", "--alpha", vec.text(), "--identity", identity,
            "--indices", ",".join(str(t + 1) for t in idx)]
    return Request("verify-shortening", argv,
                   _exact("verify-shortening", lambda: expected))


def wall_cross_req(rng, m) -> Request:
    """Component l set to a signed sum of the others, so the vector sits
    on a wall; the default delta (gap/4) is used."""
    while True:
        vals = [Fraction(rng.randint(1, 10**6)) for _ in range(m)]
        l0 = rng.randrange(m)
        total = sum(rng.choice((1, -1)) * v for k, v in enumerate(vals) if k != l0)
        if total != 0:
            vals[l0] = abs(total)
            break
    i0, j0 = sorted(rng.sample([p for p in range(m) if p != l0], 2))

    def expected():
        gap = oracle.min_gap_plain(vals)
        delta = gap / 4
        lo = vals[:l0] + [vals[l0] - delta] + vals[l0 + 1:]
        hi = vals[:l0] + [vals[l0] + delta] + vals[l0 + 1:]
        a = oracle.pair_plain(lo, i0, j0)
        b = oracle.pair_plain(hi, i0, j0)
        walls = oracle.zero_masks_plain(vals)
        return {
            "jump_N": a.signed - b.signed, "jump_count": a.count - b.count,
            "predicted_N": a.signed - b.signed, "predicted_count": a.count - b.count,
            "delta": str(delta),
            "wall_solutions": [[-1 if (w >> k) & 1 else 1 for k in range(m)]
                               for w in walls],
        }

    text = ",".join(str(v) for v in vals)
    argv = ["wall-cross", "--alpha", text, "--l", str(l0 + 1),
            "--pair", f"{i0 + 1},{j0 + 1}"]
    return Request("wall-cross", argv, _exact("wall-cross", expected))


def primes_req(rng, n) -> Request:
    i0, j0 = _pair(rng, n)

    def expected():
        vec = Vec(tuple(Fraction(p) for p in PRIMES[:n]), True)
        value = oracle.pair(vec, i0, j0).signed
        return {"n": n, "pair": [i0 + 1, j0 + 1], "N_direct": value,
                "N_moebius": value, "agree": True}

    argv = ["primes", "--n", str(n), "--pair", f"{i0 + 1},{j0 + 1}",
            "--method", "both"]
    return Request("primes", argv, _exact("primes", expected))


def weights_req(m) -> Request:
    """Dimension m mod 2; for odd m the basis is the parity product."""
    def expected():
        basis = []
        if m % 2:
            basis = [["-1" if bin(mask).count("1") & 1 else "1"
                      for mask in range(1 << (m - 2))]]
        return {"m": m, "dimension": m % 2, "basis": basis}

    return Request("weights", ["weights", "--m", str(m)],
                   _exact("weights", expected))


# ---------------------------------------------------------------------------
# Workload cycles


def _slots_closed_forms(rng):
    """Short requests on the half sign-sum walks, the q-doubling search,
    the exponential-sum kernel, the shortening identities and walls."""
    for m in (14, 15, 16, 16, 17, 17):
        yield closed_form_req(rng, plain_vec(rng, m))
    for m in (12, 13, 14, 15, 15):
        yield approx_beta_req(near_wall_vec(rng, m))
    for m, formula in ((11, "result"), (12, "result1"), (13, "result2"),
                       (14, "result2"), (15, "result")):
        yield integral_req(rng, m, formula)
    yield integral_req(rng, 7, "result", quadrature=True, top=30)
    for identity, m in (("count-split", 10), ("signed-even", 12),
                        ("count-general", 13), ("signed-odd", 11)):
        yield shortening_req(rng, identity, m)
    for m in (11, 12, 13):
        yield wall_cross_req(rng, m)


def _slots_weights(rng):
    """Constraint generation and elimination; no vector, survey or scan.
    No m=11: one such request took 4-6 s, a quarter of a cycle, and its
    spread from sample to sample made the workload's throughput unsteady."""
    for m in (8, 8, 8, 8, 9, 9, 9, 9, 9, 9, 10):
        yield weights_req(m)


def _slots_scans(rng):
    # Plain vectors (the survey and the Gray-code pair scans) and log
    # vectors (the same scans on big-integer product tables, the Moebius
    # recursion, mpmath's certified rounding).  40 slots, 20-27 s, in three
    # latency bands; the outer two are the same size, so the median is the
    # middle of the 0.3-0.45 s band.  Per cycle, verify m=16 holds latency
    # ranks 2-6 from the top, so for 2-4 cycles a run's tail (its 11th
    # largest latency) is a verify m=16, not a value on a gap between bands.
    # Below 0.3 s, startup-bound: 14 slots.
    for _ in range(2):
        yield compute_req(rng, plain_vec(rng, rng.randint(14, 16)))
    for m in (13, 14):
        yield compute_req(rng, plain_vec(rng, m), solutions=True,
                          kind="compute-solutions")
    yield degenerate_req(rng, 15)
    for _ in range(3):
        yield primes_req(rng, rng.randint(12, 16))
    for _ in range(3):
        yield approx_beta_req(log_vec(rng, rng.randint(5, 9)))
    yield compute_req(rng, log_vec(rng, rng.randint(14, 16)), kind="compute-log")
    yield verify_req(prime_vec(rng, 12), kind="verify-primes")
    yield verify_req(log_vec(rng, 12), kind="verify-log")
    # 0.3-0.45 s: 12 slots.
    for _ in range(2):
        yield compute_req(rng, plain_vec(rng, 17))
        yield compute_req(rng, log_vec(rng, 17), kind="compute-log")
    yield verify_req(prime_vec(rng, 14), kind="verify-primes")
    yield verify_req(log_vec(rng, 13), kind="verify-log")
    for _ in range(6):
        yield verify_req(plain_vec(rng, 14))
    # Above 0.5 s: 14 slots.
    for m in (15,) * 4 + (16,) * 5 + (17,):
        yield verify_req(plain_vec(rng, m))
    for m in (15, 15):
        yield verify_req(prime_vec(rng, m), kind="verify-primes")
    for m in (14, 15):
        yield verify_req(log_vec(rng, m), kind="verify-log")


def _slots_forms_weights(rng):
    # 35 slots, 11-16 s.  The median lies among the startup-bound
    # closed-form requests.  Per cycle, weights m=9 and closed-form m=17
    # (0.4-0.8 s) hold latency ranks 2-9 from the top, below weights m=10,
    # so for 2-5 cycles a run's tail (its 11th largest latency) lies in
    # that band.
    yield from _slots_closed_forms(rng)
    yield from _slots_weights(rng)


WORKLOADS = {
    "scans": _slots_scans,
    "forms-weights": _slots_forms_weights,
}

def cycle(workload: str, seed: int, index: int) -> list[Request]:
    """Requests of one cycle; the same (workload, seed, index) gives the
    same requests in the same order."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    reqs = list(WORKLOADS[workload](rng))
    rng.shuffle(reqs)
    return reqs
