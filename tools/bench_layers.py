"""Time the layers of ``verify`` and a closed form in process; write BENCH_<sha>.json.

For each size m in SIZES and each input kind, every layer is timed over
RUNS runs, each on a freshly built vector:

- ``table_build``: ``AlphaVector.half_tables()``, the one half table;
- ``survey``: ``check_generic`` on that built table;
- ``moments``: ``HalfTables.moments()``, the degree-1 moments;
- ``pair_scan``: one ``pair_invariants``, on the first pair adjacent in
  (value, index) order;
- ``anchor_scans``: ``pair_invariants`` over the m - 1 pairs adjacent
  in (value, index) order;
- ``closed_form``: one ``count_via_sign_sum``, on that first pair;
- ``verify``: ``verify_invariance`` end to end on another fresh vector
  (table, survey, moments, rows, scans and laws).

The kinds are ``plain``, m 9-digit integers drawn from
``random.Random(m)`` and redrawn until the vector is generic, and
``log``, the logs of the first m primes.  Each layer is recorded with
its median and interquartile range in seconds.  Standard library only.

    python3 tools/bench_layers.py

The package is imported from the ``src`` next to this script's
directory, and the file is written to that directory's parent, named
after ``git rev-parse --short HEAD``.  When files under ``src`` differ
from HEAD, the measured code is not that commit's, so the name gets a
``-dirty`` suffix (as ``git describe --dirty`` does) and ``dirty`` is
true.  Outside a git checkout the file is ``BENCH_nogit-dirty.json``.
Measuring the parent and a change: run the script in each
checkout (copy it into one that has none) and compare the two files.
"""

from __future__ import annotations

import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from signsum import (  # noqa: E402
    PairSelection,
    check_generic,
    count_via_sign_sum,
    log_vector,
    pair_invariants,
    rational_vector,
    verify_invariance,
)

SIZES = (16, 20, 24, 28, 30)
RUNS = 5
LAYERS = (
    "table_build",
    "survey",
    "moments",
    "pair_scan",
    "anchor_scans",
    "closed_form",
    "verify",
)


def plain_values(m: int) -> list[int]:
    """m seeded 9-digit integers with no vanishing signed sum."""
    rng = random.Random(m)
    while True:
        values = [rng.randint(10**8, 10**9 - 1) for _ in range(m)]
        if check_generic(rational_vector(values)).generic:
            return values


def first_primes(m: int) -> list[int]:
    primes = []
    candidate = 2
    while len(primes) < m:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def _adjacent_pairs(values) -> list[PairSelection]:
    order = sorted(range(len(values)), key=lambda pos: (values[pos], pos))
    return [PairSelection(p + 1, q + 1) for p, q in zip(order, order[1:])]


def time_layers(build, pairs) -> dict[str, float]:
    """One run of every layer; ``build`` makes a fresh vector."""
    seconds = {}
    alpha = build()
    start = time.perf_counter()
    tables = alpha.half_tables()
    seconds["table_build"] = time.perf_counter() - start
    start = time.perf_counter()
    check_generic(alpha)
    seconds["survey"] = time.perf_counter() - start
    start = time.perf_counter()
    tables.moments()
    seconds["moments"] = time.perf_counter() - start
    start = time.perf_counter()
    pair_invariants(alpha, pairs[0])
    seconds["pair_scan"] = time.perf_counter() - start
    start = time.perf_counter()
    for pair in pairs:
        pair_invariants(alpha, pair)
    seconds["anchor_scans"] = time.perf_counter() - start
    start = time.perf_counter()
    count_via_sign_sum(alpha, pairs[0])
    seconds["closed_form"] = time.perf_counter() - start
    alpha = build()
    start = time.perf_counter()
    verify_invariance(alpha)
    seconds["verify"] = time.perf_counter() - start
    return seconds


def measure(sizes=SIZES, runs=RUNS) -> list[dict]:
    """Median and interquartile range of every layer, size and kind."""
    records = []
    for m in sizes:
        inputs = {"plain": (rational_vector, plain_values(m))}
        inputs["log"] = (log_vector, first_primes(m))
        for kind, (make, values) in inputs.items():
            pairs = _adjacent_pairs(values)
            samples = [
                time_layers(lambda: make(values), pairs) for _ in range(runs)
            ]
            for layer in LAYERS:
                times = [sample[layer] for sample in samples]
                q1, _, q3 = statistics.quantiles(times, n=4, method="inclusive")
                records.append({
                    "layer": layer,
                    "input": kind,
                    "m": m,
                    "median_s": statistics.median(times),
                    "iqr_s": q3 - q1,
                })
    return records


def revision() -> tuple[str, bool]:
    """HEAD's short SHA, and whether files under src differ from it;
    ``("nogit", True)`` outside a git checkout, such as an export made
    by ``git archive``, or where git is missing."""
    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        return git("rev-parse", "--short", "HEAD"), bool(
            git("status", "--porcelain", "--", "src")
        )
    except (OSError, subprocess.CalledProcessError):
        return "nogit", True


def bench(sizes=SIZES, runs=RUNS) -> dict:
    sha, dirty = revision()
    return {
        "sha": sha,
        "dirty": dirty,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "runs": runs,
        "layers": measure(sizes, runs),
    }


def write(record: dict, directory: Path = ROOT) -> Path:
    suffix = "-dirty" if record["dirty"] else ""
    path = Path(directory) / f"BENCH_{record['sha']}{suffix}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def main() -> int:
    print(write(bench()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
