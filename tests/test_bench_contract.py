"""The benchmark's tracer wraps warpfield functions by name.

``perfbench/tracer.py`` lists them in ``SPANS``; a renamed or deleted
name would only surface when a traced benchmark run crashes, because
the tier-1 suite does not collect ``perfbench/``.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_resolves():
    missing = []
    for span, module_name, attr in load_tracer().SPANS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(span)
    assert missing == []
