"""The traced benchmark wraps package functions by attribute name.

A rename or deletion under ``src/`` that removes one of those names breaks
``bench/run.py --trace 1`` only when it runs; these tests catch it in the
suite.
"""

import sys
from pathlib import Path

import numpy as np

from jointscale import Marginals, sinkhorn

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402


def test_every_wrapped_name_resolves():
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in tracing.WRAPPED
               if not callable(getattr(module, attr, None))]
    assert missing == []


def test_uninstall_restores_the_originals():
    originals = [getattr(module, attr) for module, attr, _, _ in tracing.WRAPPED]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (module, attr, _, _), original in zip(tracing.WRAPPED, originals):
            assert getattr(module, attr).__wrapped__ is original
    finally:
        tracer.uninstall()
    for (module, attr, _, _), original in zip(tracing.WRAPPED, originals):
        assert getattr(module, attr) is original


def test_sinkhorn_counter_reads_the_solve_info():
    # the counter reads info keys by name: a renamed key fails here
    c = np.array([[0.0, 1.0], [1.0, 0.0]])
    m = Marginals.uniform(2, 2)
    out = sinkhorn(c, m, 0.01, log=True)
    counts = tracing._count_sinkhorn((c, m, 0.01), {"log": True}, out)
    assert counts == {"iters": out[1]["iterations"], "warmup_iters": out[1]["warmup_iterations"],
                      "at_budget": 0}
    assert counts["iters"] > 0 and counts["warmup_iters"] > 0
    # a bare coupling, without log=True, carries no counts
    assert tracing._count_sinkhorn((c, m, 0.01), {}, sinkhorn(c, m, 0.01)) == {}
