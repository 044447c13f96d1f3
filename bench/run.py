"""signsum benchmark: cold-process CLI requests in a closed loop.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client sends one request at a time: each request is a fresh
``python -m signsum <subcommand> ...`` child run against this tree's
``src``, and the next starts only after the previous child has exited.
Inputs come from the seed alone (see workloads.py); the timed loop runs
the workload's shuffled cycles one after another for S seconds.  After
the timed loop every response is checked against the envelope schema
and an independent oracle (oracle.py).

--trace 0 prints the end-to-end metrics.  --trace 1 runs each request of
the first cycle twice, once plain and once under trace_child.py, checks
that the two stdouts are byte-identical, and prints the per-layer
metrics.  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  Exit code 2 means the program could not
be run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import layers
import oracle
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CACHE = ROOT / ".bench_cache"
PY = sys.executable

REQUEST_TIMEOUT_S = 30.0
# No request starts after this, so a run always exits well inside 180 s.
HARD_STOP_S = 100.0
SETUP_EVERY_S = 5.0
SETUP_CMD = [PY, "-c", "import signsum.cli"]
IMPORTTIME_SAMPLES = 5


@dataclass
class Child:
    stdout: bytes
    stderr: bytes
    returncode: int
    wall_s: float
    maxrss_kb: int
    timed_out: bool


def child_env() -> dict:
    """The caller's environment minus every SIGNSUM_* setting, so the
    program's defaults apply, with this tree's src first on the path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SIGNSUM_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd: list[str], env: dict, timeout: float = REQUEST_TIMEOUT_S) -> Child:
    """Spawn, drain both pipes, and reap with wait4 to get the child's
    own rusage.  Wall time runs from spawn to reaped exit."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT)
    out_fd, err_fd = proc.stdout.fileno(), proc.stderr.fileno()
    chunks: dict[int, list[bytes]] = {out_fd: [], err_fd: []}
    timed_out = False
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(out_fd, selectors.EVENT_READ)
            sel.register(err_fd, selectors.EVENT_READ)
            while sel.get_map():
                remaining = start + timeout - time.perf_counter()
                if remaining <= 0:
                    proc.kill()
                    timed_out = True
                    break
                for key, _ in sel.select(remaining):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fd)
    except BaseException:
        proc.kill()
        raise
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    return Child(b"".join(chunks[out_fd]), b"".join(chunks[err_fd]),
                 proc.returncode, wall, usage.ru_maxrss, timed_out)


def signsum_cmd(argv: list[str]) -> list[str]:
    return [PY, "-m", "signsum", *argv]


# ---------------------------------------------------------------------------
# Response checking


class Checker:
    def __init__(self):
        import jsonschema

        schema = json.loads((SRC / "signsum" / "cli_schema.json").read_text())
        self.validator = jsonschema.Draft202012Validator(schema)

    def failure(self, req: workloads.Request, child: Child) -> str | None:
        """Reason the response is wrong, or None."""
        if child.timed_out:
            return "timeout"
        text = child.stdout.decode("utf-8", errors="replace")
        if not text.endswith("\n") or text.count("\n") != 1:
            return "stdout is not exactly one line"
        try:
            env = json.loads(text)
        except ValueError:
            return "stdout is not JSON"
        errors = list(self.validator.iter_errors(env))
        if errors:
            return f"envelope does not match the schema: {errors[0].message}"
        if env["exit_code"] != child.returncode:
            return f"exit code {child.returncode} but envelope says {env['exit_code']}"
        try:
            return req.check(env)
        except oracle.OracleError as exc:
            return f"oracle could not decide: {exc}"


# ---------------------------------------------------------------------------
# Statistics


def tail(values: list[float]) -> tuple[float, float, int]:
    """(level, value, samples above) for the highest percentile that still
    has ten samples above it: the 11th largest value, whose nearest-rank
    percentile is 100 * (n - 10) / n.  With ten samples or fewer, the
    maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1], 0
    return 100.0 * (n - 10) / n, ordered[n - 11], 10


def code_digest() -> str:
    h = hashlib.sha256()
    for base in (SRC / "signsum", BENCH):
        for path in sorted(base.glob("*")):
            if path.is_file() and path.suffix in (".py", ".json"):
                h.update(path.name.encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def stamp(seed: int, workload: str, mpmath_version: str) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"workload": workload, "seed": seed, "python": platform.python_version(),
            "mpmath": mpmath_version, "nproc": len(os.sched_getaffinity(0)), "git_sha": sha,
            "code_sha256": code_digest()}


# ---------------------------------------------------------------------------
# Runs


def preflight(env: dict) -> str:
    """Import the program once (also compiles its bytecode); returns the
    mpmath version the children see.  Exits 2 if the program is missing."""
    child = run_child([PY, "-c", "import signsum.cli, mpmath; print(mpmath.__version__)"],
                      env)
    if child.returncode != 0 or not (SRC / "signsum").is_dir():
        sys.stderr.write("cannot import signsum.cli from ./src:\n"
                         + child.stderr.decode(errors="replace"))
        sys.exit(2)
    return child.stdout.decode().strip()


def timed_run(workload: str, seed: int, seconds: float, env: dict):
    """Requests for ``seconds`` of loop time: whole cycles in their
    shuffled order, the last one cut where the time runs out, so a run's
    mix is the cycle's mix up to a random part of one cycle.  Returns
    the results, the loop's wall time, the requests and loop seconds at
    the end of the last whole cycle, the number of cycles begun and the
    set-up samples.

    Set-up samples (a fresh ``import signsum.cli``) are taken between
    requests every SETUP_EVERY_S, so they see the same machine as the
    requests.  Their time, and the time spent generating cycles, is
    excluded from the loop's wall time.
    """
    results, setup, pending = [], [], []
    cycles, excluded, whole = 0, 0.0, (0, 0.0)
    start = time.perf_counter()
    last_setup = start - SETUP_EVERY_S
    while True:
        now = time.perf_counter()
        loop_wall = now - start - excluded
        if not pending and results:
            whole = (len(results), loop_wall)
        if loop_wall >= seconds or now - start > HARD_STOP_S:
            break
        if not pending:
            pending = workloads.cycle(workload, seed, cycles)
            cycles += 1
        elif now - last_setup >= SETUP_EVERY_S:
            setup.append(run_child(SETUP_CMD, env).wall_s)
            last_setup = time.perf_counter()
        else:
            req = pending.pop(0)
            results.append((req, run_child(signsum_cmd(req.argv), env)))
            continue
        excluded += time.perf_counter() - now
    return results, loop_wall, whole, cycles, setup


def end_to_end(args, env, checker) -> dict:
    results, loop_wall, whole, cycles, setup = timed_run(
        args.workload, args.seed, args.seconds, env)
    failures = []
    for idx, (req, child) in enumerate(results):
        reason = checker.failure(req, child)
        if reason:
            failures.append((idx, req, reason))
    walls = [child.wall_s for _, child in results]
    level, tail_value, above = tail(walls)
    n = len(results)
    # Throughput over whole cycles only: a cut cycle holds a random share
    # of the heavy slots, which would move the rate from run to run.
    done, done_wall = whole if whole[0] else (n, loop_wall)
    metrics = {
        "latency_p50_s": (statistics.median(walls), "s"),
        "latency_tail_s": (tail_value, "s"),
        "requests_per_s": (done / done_wall, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(c.maxrss_kb for _, c in results) / 1024, "MB"),
    }
    print(f"requests {n} from {cycles} cycles, {loop_wall:.3f} s timed loop, "
          f"{len(setup)} set-up samples; whole cycles: {done} requests in "
          f"{done_wall:.3f} s")
    for name, (value, unit) in metrics.items():
        note = f"   (p{level:.4g} of {n} samples, {above} above)" if name == "latency_tail_s" else ""
        print(f"{name:<16} {value:.6f} {unit}{note}")
    print(f"{'failed_frac':<16} {len(failures) / n:.6f} 1   ({len(failures)} of {n})")
    _report_failures(failures)
    return {
        "correct": not failures,
        "attempted": n,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _report_failures(failures) -> None:
    for idx, req, reason in failures[:20]:
        print(f"FAILED request {idx} ({req.kind}): {reason}: "
              f"{' '.join(req.argv)[:200]}")


def traced_run(args, env, checker) -> dict:
    """First cycle only: each request runs plain and traced, in alternating
    order, and the traced stdout must equal the plain one byte for byte."""
    reqs = workloads.cycle(args.workload, args.seed, 0)
    CACHE.mkdir(exist_ok=True)
    spans_path = CACHE / f"spans-{os.getpid()}.json"
    times = {name: [0.0, 0] for name in layers.TIMED}
    counts = layers.Counts()
    plain_walls, traced_walls, failures = [], [], []
    start = time.perf_counter()
    try:
        for idx, req in enumerate(reqs):
            if time.perf_counter() - start > HARD_STOP_S:
                failures.append((idx, req, "not run: out of time"))
                continue
            traced_cmd = [PY, str(BENCH / "trace_child.py"), str(spans_path), str(idx),
                          *req.argv]
            if idx % 2:
                traced = run_child(traced_cmd, env)
                plain = run_child(signsum_cmd(req.argv), env)
            else:
                plain = run_child(signsum_cmd(req.argv), env)
                traced = run_child(traced_cmd, env)
            plain_walls.append(plain.wall_s)
            traced_walls.append(traced.wall_s)
            reason = checker.failure(req, plain)
            if reason is None and (traced.stdout != plain.stdout
                                   or traced.returncode != plain.returncode):
                reason = "traced stdout or exit code differs from the plain run"
            if reason is None and not spans_path.exists():
                reason = "traced child wrote no spans"
            if reason:
                failures.append((idx, req, reason))
                continue
            spans = json.loads(spans_path.read_text())
            spans_path.unlink()
            for name, (sec, calls) in layers.layer_times(spans).items():
                times[name][0] += sec
                times[name][1] += calls
            kernel_terms = oracle.expansion_terms(*req.kernel) if req.kernel else 0
            counts.add(req.argv, json.loads(plain.stdout), len(plain.stdout), spans,
                       kernel_terms)
    finally:
        spans_path.unlink(missing_ok=True)

    imports = [layers.parse_importtime(
        run_child([PY, "-X", "importtime", "-c", "import signsum.cli"], env)
        .stderr.decode(errors="replace")) for _ in range(IMPORTTIME_SAMPLES)]
    n = len(reqs)
    metrics = {
        "cli.import_s": (statistics.median(i[0] for i in imports), "s"),
        "cli.import_s_calls": (IMPORTTIME_SAMPLES, "count"),
        "cli.import_mpmath_s": (statistics.median(i[1] for i in imports), "s"),
        "cli.import_mpmath_s_calls": (IMPORTTIME_SAMPLES, "count"),
    }
    for name, (sec, calls) in times.items():
        metrics[name] = (sec / n, "s")
        metrics[name + "_calls"] = (calls, "count")
    computed = counts.result()
    for name, unit in layers.COUNTS.items():
        metrics[name] = (computed[name], unit)
    metrics["trace_overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1, "ratio")

    drift = _check_counts_repeat(args, computed)
    if drift:
        print(f"computed counts differ from an earlier run of this code and seed: {drift}")
    print(f"traced {n} requests (first cycle), plain and traced; "
          f"per-layer seconds are per request")
    for name, (value, unit) in metrics.items():
        label = "   (computed)" if name in layers.COUNTS else ""
        print(f"{name:<34} {value:.6g} {unit}{label}")
    _report_failures(failures)
    return {
        "correct": not failures and not drift,
        "attempted": n,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _check_counts_repeat(args, counts: dict) -> list[str]:
    """Compare with the counts an earlier run of the same code and seed
    stored; store them if this is the first such run."""
    CACHE.mkdir(exist_ok=True)
    path = CACHE / f"counts-{args.workload}-{args.seed}-{code_digest()}.json"
    if not path.exists():
        path.write_text(json.dumps(counts, sort_keys=True))
        return []
    earlier = json.loads(path.read_text())
    return sorted(k for k in counts if earlier.get(k) != counts[k])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind so run_child kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    env = child_env()
    mpmath_version = preflight(env)
    checker = Checker()
    print("stamp " + json.dumps(stamp(args.seed, args.workload, mpmath_version),
                                sort_keys=True))
    result = traced_run(args, env, checker) if args.trace else end_to_end(args, env, checker)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
