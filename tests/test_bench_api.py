"""The names the benchmark in ``perfbench/`` reaches into must keep existing.

``perfbench/spans.py`` wraps functions and methods of the package by name,
and ``perfbench/run.py`` calls ``count_embeddings`` with a prebuilt index and
a thread count.  Removing or renaming any of them breaks the benchmark run;
these tests make that show up in the test suite instead.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return _load("spans")


def test_every_span_target_resolves(spans):
    for module, name, _ in spans.SPANS:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def test_every_traced_method_is_defined_on_its_class(spans):
    for cls, name, _ in spans.METHODS:
        assert name in cls.__dict__, f"{cls.__name__}.{name}"


def test_count_embeddings_takes_index_and_threads(spans):
    params = inspect.signature(spans.counting.count_embeddings).parameters
    assert "index" in params and "threads" in params


def test_workload_module_imports():
    assert callable(_load("workloads").build)


def test_index_counts_read_by_spans(spans):
    index = spans.counting.DotProductIndex(spans.geometry.point_set([(1, 2), (2, 1)]))
    span = spans.Span("counting.index", "setup", 0.0)
    spans._index_counts(span, (index,), None)
    assert span.attrs == {"dot_products": 4, "index_values": 1, "index_pairs": 2}
