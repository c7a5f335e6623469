"""Spans around the public functions of dottrees, recorded from outside.

The package itself carries no instrumentation.  ``Tracer.install`` replaces
each public function listed in ``SPANS`` (and two methods) in every dottrees
module that holds it, so calls made through the CLI, between modules and
inside a module all go through a wrapper that records a span: name, start,
end, parent span and run id.  Spans stay in memory until ``write``.
``Tracer.restore`` puts the original functions back, so untraced calls run
the unmodified code.

A span's self time is its duration minus the time its child spans cover.
The self times of all spans under one traced CLI call add up to the duration
of its root span, ``cli_main``; ``decompose`` groups them into the per-layer
metrics.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import asdict, dataclass, field

import dottrees
from dottrees import (
    acceptance,
    bounds,
    cli,
    constructions,
    counting,
    experiments,
    geometry,
    reports,
    trees,
)

# Every dottrees module: a function is replaced wherever it was imported.
MODULES = [dottrees, geometry, trees, counting, constructions, bounds,
           experiments, acceptance, reports, cli]

# (module, public function, span name).  Span names are layer names; several
# functions may share one.
SPANS = [
    (cli, "cli_main", "cli"),
    (geometry, "read_point_set", "geometry.parse"),
    (geometry, "format_point_set", "geometry.format"),
    (geometry, "integer_grid", "constructions.build"),
    (geometry, "random_point_set", "constructions.build"),
    (constructions, "build_column_construction", "constructions.build"),
    (constructions, "build_perp_lines_3d", "constructions.build"),
    (constructions, "build_unit_lattice", "constructions.build"),
    (counting, "count_embeddings", "counting.backtrack"),
    (counting, "distinct_weight_tuples", "counting.tuples"),
    (counting, "proof_graph_edges", "counting.edges"),
    (counting, "count_segment_crossings", "counting.crossings"),
    (counting, "proof_multigraph", "counting.proofgraph"),
    (counting, "count_homomorphisms", "counting.other"),
    (counting, "distinct_dot_products", "counting.other"),
    (counting, "pinned_set", "counting.other"),
    (counting, "max_pinned", "counting.other"),
    (counting, "pinned_weight_tuples", "counting.other"),
    (counting, "incidences", "counting.other"),
    (counting, "radial_histogram", "counting.other"),
    (counting, "hyperplane_descent", "counting.other"),
    (reports, "digest_inputs", "reports"),
    (reports, "point_set_digest", "reports"),
]
METHODS = [
    (counting.DotProductIndex, "__init__", "counting.index"),
    (reports.CountReport, "to_json", "reports"),
]

# Self time of the spans under a traced CLI call, by metric.  Formatting a
# point set inside the CLI only feeds the report digest, so it counts as
# report time; the generators run inside a call only in verify's criteria.
# Each criterion's span is named acceptance.criterion_<number>.
CALL_METRICS = {
    "cli": "cli.self_s",
    "geometry.parse": "geometry.parse_s",
    "geometry.format": "reports.s",
    "constructions.build": "constructions.call_s",
    "counting.index": "counting.index_s",
    "counting.backtrack": "counting.backtrack_s",
    "counting.tuples": "counting.tuples_s",
    "counting.edges": "counting.edges_s",
    "counting.crossings": "counting.crossings_s",
    "counting.proofgraph": "counting.proofgraph_s",
    "counting.other": "counting.other_s",
    "reports": "reports.s",
    **{f"acceptance.criterion_{i}": "acceptance.self_s"
       for i in range(1, len(acceptance.CRITERIA) + 1)},
}
# Work counts recorded on spans, summed over a traced call.
COUNTS = ("counting.dot_products", "counting.index_values", "counting.index_pairs",
          "counting.edges", "counting.segments", "counting.segment_pairs",
          "counting.crossings")
# Self time of the spans made while the workload writes its inputs.
SETUP_METRICS = {
    "geometry.format": "geometry.format_s",
    "constructions.build": "constructions.build_s",
}


@dataclass
class Span:
    name: str
    run: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)


def _index_counts(span: Span, args, result) -> None:
    index = args[0]
    span.attrs["dot_products"] = len(index.left) * len(index.right)
    span.attrs["index_values"] = len(index.values())
    span.attrs["index_pairs"] = index.pair_total()


def _edges_counts(span: Span, args, result) -> None:
    span.attrs["edges"] = sum(result.values())
    span.attrs["segments"] = len(result)


def _crossings_counts(span: Span, args, result) -> None:
    segments = len(args[0])
    span.attrs["segment_pairs"] = segments * (segments - 1) // 2
    span.attrs["crossings"] = result


# Work counts read from a call's arguments or result after its span closed.
NOTES = {
    "counting.index": _index_counts,
    "counting.edges": _edges_counts,
    "counting.crossings": _crossings_counts,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = "setup"
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, self.run, 0.0, parent=stack[-1] if stack else None)
            stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if note is not None:
                note(span, args, result)
            return result

        return traced

    def install(self, *extra_modules) -> None:
        """Wrap every listed function in the dottrees modules and in
        ``extra_modules``, which imported some of them by name."""
        for module, attr, name in SPANS:
            original = getattr(module, attr)
            wrapped = self.wrap(name, original)
            for mod in (*MODULES, *extra_modules):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, value))
                        setattr(mod, key, wrapped)
        for cls, attr, name in METHODS:
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original))
        # run_criteria reads the CRITERIA tuple, not the module's names.
        self._saved.append((acceptance, "CRITERIA", acceptance.CRITERIA))
        acceptance.CRITERIA = tuple(
            self.wrap(f"acceptance.criterion_{i}", fn)
            for i, fn in enumerate(acceptance.CRITERIA, 1)
        )

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(span)}) + "\n")

    def self_times(self, run: str) -> list[tuple[Span, float]]:
        """(span, self time) for every span of ``run``."""
        ids = [i for i, s in enumerate(self.spans) if s.run == run]
        covered = dict.fromkeys(ids, 0.0)
        for i in ids:
            span = self.spans[i]
            if span.parent is not None and span.parent in covered:
                covered[span.parent] += span.end - span.start
        return [(self.spans[i], self.spans[i].end - self.spans[i].start - covered[i]) for i in ids]

    def decompose(self, run: str) -> dict:
        """Per-layer self times and work counts of one traced CLI call."""
        metrics = dict.fromkeys(CALL_METRICS.values(), 0.0)
        metrics.update(dict.fromkeys(COUNTS, 0))
        for i in range(1, len(acceptance.CRITERIA) + 1):
            metrics[f"acceptance.criterion_{i}_s"] = 0.0
        for span, self_s in self.self_times(run):
            metrics[CALL_METRICS[span.name]] += self_s
            for key, value in span.attrs.items():
                metrics["counting." + key] += value
            if span.name.startswith("acceptance.criterion_"):
                metrics[span.name + "_s"] = span.end - span.start
        return metrics

    def setup_metrics(self) -> dict:
        metrics = dict.fromkeys(SETUP_METRICS.values(), 0.0)
        for span, self_s in self.self_times("setup"):
            if span.name in SETUP_METRICS:
                metrics[SETUP_METRICS[span.name]] += self_s
        return metrics
