"""The benchmark tracer patches package names by string; each must still resolve.

``bench/spans.py`` is loaded by file path, so the package can be tested
without the benchmark directory on the import path.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_traced_name_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.SHIMS
    for module_name, attr, *_ in spans.SHIMS:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{module_name}.{attr} is not a callable"
