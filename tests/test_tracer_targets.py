"""The benchmark's span tracer (perfbench/spans.py) finds the functions it
wraps by name, so a renamed or deleted function breaks ``--trace 1``; this
catches that here first."""
from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import fixbi.models

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced() -> list[tuple[str, str]]:
    # executed from its file, not imported: spans.py needs only the stdlib
    # and stays out of sys.modules
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


def test_traced_functions_and_model_exports_exist():
    missing = [f"fixbi.{owner}.{fname}" for owner, fname in _traced()
               if not inspect.isfunction(
                   getattr(importlib.import_module(f"fixbi.{owner}"), fname, None))]
    assert not missing, f"traced but not defined: {missing}"
    unexported = [n for n in fixbi.models.__all__ if not hasattr(fixbi.models, n)]
    assert not unexported, f"in fixbi.models.__all__ but not defined: {unexported}"
