"""Import target kept for the end-to-end benchmark's traced run.

Nothing in ``repro`` calls :func:`run`.  ``benchmarks/e2e/traced.py``
imports and wraps ``repro.compiler.pipeline.run`` as its
``compiler.analysis`` span, and every ``--trace 1`` run would fail at
import without it; that is this module's only reason to exist.  Delete
it together with that target.
"""

from __future__ import annotations


def run(program):
    """Return ``program`` unchanged."""
    return program
