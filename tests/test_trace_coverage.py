"""Every function and cache the benchmark's tracer wraps still exists.

``bench/tracing.py`` reports a traced name the program no longer has as
absent and reads its metrics as 0, so a removed or renamed function would
otherwise only show as a zero in the benchmark output.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from angulab import operators

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("angulab_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist(tracing):
    for name, mod, attr in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"angulab.{mod}"), attr, None)), name


def test_traced_caches_exist(tracing):
    for prefix, mod, attr in tracing.CACHES:
        cache = getattr(importlib.import_module(f"angulab.{mod}"), attr, None)
        assert hasattr(cache, "cache_info"), prefix


def test_every_ket_class_has_inner(tracing):
    classes = operators.Ket.__subclasses__()
    assert classes
    for cls in classes:
        assert "inner" in vars(cls) and hasattr(cls, "family"), cls.__name__
    assert tracing.Instrumentation().absent == []
