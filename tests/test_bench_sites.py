"""The benchmark's span sites still exist in the package.

``benchmarks/spans.py`` wraps functions by module and attribute name; a
renamed site is skipped there and its metric reads zero, so tier-1 checks
every name it looks up.  The file is loaded read-only, not run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def test_every_span_site_resolves_to_a_callable(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    sites = [(module, attr) for module, attr, *_ in spans.WRAPS]
    sites += [("coarsefine.model", attr) for attr in spans.MODEL_FORWARDS]
    sites.append(("coarsefine.pipeline", "BufferMeter"))
    missing = [
        f"{module}.{attr}" for module, attr in sites
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
