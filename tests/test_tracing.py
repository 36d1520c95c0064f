"""The traced benchmark wraps package functions by attribute name.

A rename or deletion under ``src/`` that removes one of those names breaks
``bench/run.py --trace 1`` only when it runs; these tests catch it in the
suite.
"""

import sys
from pathlib import Path

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
