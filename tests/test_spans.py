"""Every function that perfbench's tracer wraps still exists under its name.

The tracer drops a target it cannot find with only a warning, so a rename
would otherwise empty its metrics without failing anything.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_trace_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    missing = []
    for module_name, attr, _outcome in spans.TARGETS:
        owner = importlib.import_module(f"kernelgraphs.{module_name}")
        for part in attr.split("."):  # "Class.method" resolves through the class
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []
