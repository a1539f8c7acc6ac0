"""Every name the benchmark wraps must stay importable.

lazbench/spans.py lists in SPANS and COUNTED the lazbrace functions and
methods a traced run (`lazbench/run.py --trace 1`) wraps by name; a renamed
or deleted one would otherwise break only that run.  The file is read here
without writing anything under lazbench/.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS_PY = Path(__file__).resolve().parents[1] / "lazbench" / "spans.py"


def test_every_span_and_counted_name_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no cache file next to spans.py
    spec = importlib.util.spec_from_file_location("lazbench_spans", SPANS_PY)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.SPANS and spans.COUNTED
    for module, attr in spans.SPANS + spans.COUNTED:
        owner = importlib.import_module(f"lazbrace.{module}")
        if "." in attr:  # a method, wrapped through its class __dict__
            cls_name, meth = attr.split(".")
            owner = vars(getattr(owner, cls_name, object))
            assert callable(owner.get(meth)), f"lazbrace.{module}.{attr}"
        else:
            assert callable(getattr(owner, attr, None)), f"lazbrace.{module}.{attr}"
