"""The benchmark's own answers for the weight solver, checked in-process.

Imports ``bench/workloads.py`` (and the numpy/mpmath oracle it uses)
without changing it, sends the ``weights`` requests of one
``forms-weights`` cycle through the CLI and applies each request's check.
"""

import json
import os
import sys

import pytest

from signsum.cli import run

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

pytest.importorskip("numpy")
pytest.importorskip("mpmath")


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, BENCH)
    try:
        import workloads
    finally:
        sys.path.remove(BENCH)
    return workloads


def test_forms_weights_cycle_weights_requests(workloads):
    requests = [
        r for r in workloads.cycle("forms-weights", 1, 0) if r.kind == "weights"
    ]
    assert requests
    for request in requests:
        envelope = json.loads(run(request.argv).to_json())
        assert request.check(envelope) is None, request.argv
