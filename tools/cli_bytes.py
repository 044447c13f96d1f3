"""Fingerprint the command-line output of a fixed set of requests.

For each argv this prints one line: a label, the exit code, and the
SHA-256 of stdout and of stderr as ``signsum.cli.main`` writes them, run
in process.  The argvs are ``HAPPY`` and ``FAILING`` from
tests/test_cli.py, then the first cycle of both workloads of
bench/workloads.py at each seed.  Standard library only, apart from the
numpy and mpmath that bench/workloads.py imports.

    python3 tools/cli_bytes.py [SEED ...]

The seeds default to 1 2 3 4.  The package is imported from the ``src``
next to this script's directory, so to compare two checkouts, run the
script in each (copy it into a checkout that has none) and diff the
outputs.
"""

from __future__ import annotations

import ast
import hashlib
import io
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_TEST_LISTS = ("HAPPY", "OVERSIZED", "FAILING")


def suite_argvs() -> list[tuple[str, list[str]]]:
    """(label, argv) of every ``HAPPY`` and ``FAILING`` entry.

    Only the module-level assignments to those lists and the
    undecorated functions are run, so the test module's own imports,
    pytest and the schema validator among them, are not needed.
    """
    path = ROOT / "tests" / "test_cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    wanted = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and not node.decorator_list
        or isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) in _TEST_LISTS for t in node.targets)
    ]
    namespace = {"random": random}
    exec(compile(ast.Module(wanted, []), str(path), "exec"), namespace)
    argvs = [(f"HAPPY[{k}]", argv) for k, argv in enumerate(namespace["HAPPY"])]
    argvs += [
        (f"FAILING[{k}]", entry[0]) for k, entry in enumerate(namespace["FAILING"])
    ]
    return argvs


def workload_argvs(seeds) -> list[tuple[str, list[str]]]:
    """(label, argv) of the first cycle of each workload at each seed."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "bench"))
    return [
        (f"{name}/{seed}[{k}]:{request.kind}", request.argv)
        for name in workloads.WORKLOADS
        for seed in seeds
        for k, request in enumerate(workloads.cycle(name, seed, 0))
    ]


def fingerprint(argv) -> tuple[int, str, str]:
    """(exit code, stdout SHA-256, stderr SHA-256) of one in-process run."""
    from signsum.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return (
        code,
        hashlib.sha256(out.getvalue().encode()).hexdigest(),
        hashlib.sha256(err.getvalue().encode()).hexdigest(),
    )


def main(argv: list[str]) -> int:
    try:
        seeds = [int(s) for s in argv] or [1, 2, 3, 4]
    except ValueError:
        sys.stderr.write("usage: cli_bytes.py [SEED ...]\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    for label, args in suite_argvs() + workload_argvs(seeds):
        code, out, err = fingerprint(args)
        print(f"{label} {code} {out} {err}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
