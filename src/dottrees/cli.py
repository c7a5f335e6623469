"""Command-line front end.

Subcommands: generate, count, distinct, pinned, incidence, radial,
proofgraph, verify, report.  Each subcommand takes only the shared flags it
reads: ``--json`` on all but generate (which always writes a sidecar next
to ``-o``), ``--include-zero`` on count, distinct, pinned and proofgraph,
and ``--timings`` on count, distinct, pinned, incidence, radial, proofgraph
and verify (each criterion's ``elapsed_ms``).  Of their own flags, generate
reads only its construction's and report only its experiment's, as the one
table ``READS`` lists them with their defaults; incidence takes one of
--lines and --pins, and --alpha only with --pins.  count's ``--threads`` is
checked to be at least 1 and has no other effect.  Any other given flag is a
usage error.

``build_parser`` declares only the subcommand ``argv[0]`` names, so a run
sets up one subcommand's flags, not all nine; any other argv (none, help, a
typo, a leading flag) gets all nine.  Help, usage errors and exit codes are
the same either way.  A negative value may follow any of ``RATIONAL_FLAGS``.

Every counting handler loads its inputs through ``_read_file``, starts the
clock, computes, and hands its output lines and counts to ``_report``, which
prints them and writes the ``CountReport``.  Exit status is 0 on success, 1
when a check fails, and 2 on any malformed input, out-of-range parameter,
unwritable output or output path that is one of the command's inputs
(``_output_path``): ``cli_main`` turns every ``ValueError`` (``UsageError``
and ``ParseError`` included) into an ``error:`` line on stderr.  All outputs
are deterministic for a fixed configuration; timings appear only with --timings.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

from .acceptance import run_criteria
from .bounds import format_report_table
from .constructions import (
    LatticeSpec,
    build_column_construction,
    build_perp_lines_3d,
    build_unit_lattice,
)
from .counting import (
    count_embeddings,
    count_homomorphisms,
    distinct_dot_products,
    distinct_weight_tuples,
    hyperplane_descent,
    incidences,
    max_pinned,
    pinned_set,
    pinned_weight_tuples,
    proof_multigraph,
    radial_histogram,
)
from .experiments import columns_report, lattice_report, perplines_report
from .geometry import (
    AlphaHyperplane,
    ParseError,
    PointSet,
    _records,
    alpha_hyperplane,
    format_point_set,
    format_scalar,
    parse_scalar,
    random_point_set,
    read_point_set,
)
from .reports import CountReport, digest_inputs
from .trees import (
    WeightedTree,
    format_tree,
    make_path,
    make_perfect_binary,
    make_star,
    read_tree,
)

__all__ = ["cli_main", "main"]

USAGE_ERROR = 2
CHECK_FAILURE = 1

BUILTIN_TREES = {"path": make_path, "star": make_star, "binary": make_perfect_binary}
# The most edges a builtin tree may have, checked before the tree is built.
MAX_BUILTIN_EDGES = 2**20

# The flags each generate --construction and each report --experiment reads,
# each with its default, in the parser's declaration order; a default of None
# marks a required flag.  A choice rejects the flags only other rows read.
READS = {
    "construction": {
        "columns": {"tree": None, "n": None},
        "perplines": {"tree": None, "n": None},
        "random": {"n": None, "d": 2, "low": -50, "high": 50, "seed": None},
        "lattice": {"d": 2, "q": None, "mode": "calibrated"},
    },
    "experiment": {
        "columns": {"tree": None, "n": None},
        "perplines": {"tree": None, "n": None},
        "lattice": {"d": 2, "q": None},
    },
}


class UsageError(ValueError):
    pass


def _output_path(value: str | Path, name: str, args) -> Path:
    """``value`` as a path a file can be written at, in a directory that
    exists, and that resolves to none of the files ``args`` reads (a --tree
    may name a builtin instead); ``name`` is the output's flag, named by the
    error."""
    path = Path(value)
    if not path.parent.exists():
        raise UsageError(f"directory {path.parent} does not exist")
    if path.is_dir() or not path.parent.is_dir():
        raise UsageError(f"{path}: {'Is' if path.is_dir() else 'Not'} a directory")
    inputs = {Path(v).resolve() for flag in ("points", "second", "tree", "lines", "pins")
              if (v := getattr(args, flag, None)) is not None
              and not (flag == "tree" and v.startswith("builtin:"))}
    if path.resolve() in inputs:
        raise UsageError(f"{name} {path} is also an input of this command")
    return path


def _read_file(value: str, reader):
    """``reader`` applied to the opened input, a pipe too, read as UTF-8 with
    a leading byte-order mark skipped; an error names the file."""
    path = Path(value)
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return reader(fh)
    except FileNotFoundError:
        raise UsageError(f"no such file: {path}") from None
    except (OSError, ParseError, UnicodeDecodeError) as exc:
        raise UsageError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from None


def _read_lines(stream, dim: int) -> list[AlphaHyperplane]:
    """A --lines file: each non-comment row is dim normal coordinates then the value."""
    hyperplanes = []
    for line_no, _, fields in _records(stream):
        if len(fields) != dim + 1:
            raise ParseError(f"expected {dim + 1} rationals", line_no)
        values = [parse_scalar(f, line_no) for f in fields]
        hyperplanes.append(_hyperplane(tuple(values[:-1]), values[-1], line_no))
    return hyperplanes


def _read_pins(stream, alpha: Fraction) -> list[AlphaHyperplane]:
    """A --pins .pts file: the alpha-hyperplane of each point, on its line."""
    lines = list(stream)
    pins = read_point_set(lines).points
    # The records are the header, then one per point.
    rows = [line_no for line_no, _, _ in _records(lines)][1:]
    return [_hyperplane(p, alpha, n) for n, p in zip(rows, pins)]


def _hyperplane(normal, value, line_no: int) -> AlphaHyperplane:
    """``alpha_hyperplane(normal, value)``; its error names ``line_no``."""
    try:
        return alpha_hyperplane(normal, value)
    except ValueError as exc:
        raise ParseError(str(exc), line_no) from None


def _resolve_tree(spec: str, weights: str | None) -> WeightedTree:
    """A tree argument is builtin:{path|star|binary}:<size> or a .tree file."""
    if spec.startswith("builtin:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise UsageError(f"bad builtin tree {spec!r}; use builtin:path:2")
        kind, raw_size = parts[1], parts[2]
        try:
            size = int(raw_size)
        except ValueError:
            raise UsageError(f"bad tree size {raw_size!r}") from None
        if kind not in BUILTIN_TREES:
            raise UsageError(f"unknown builtin tree kind {kind!r}")
        # k edges for a path or a star, 2^(h+1) - 2 for a binary tree of
        # height h, capped at h = 20, where the count is over the bound.
        edges = size if kind != "binary" else 2 ** (min(max(size, 0), 20) + 1) - 2
        if edges > MAX_BUILTIN_EDGES:
            raise UsageError(f"builtin tree {spec!r} has more than {MAX_BUILTIN_EDGES} edges")
        wt = WeightedTree(BUILTIN_TREES[kind](size), None)
    else:
        wt = _read_file(spec, read_tree)
    if weights is not None:
        try:
            parsed = tuple(parse_scalar(w.strip()) for w in weights.split(","))
        except ParseError as exc:
            raise UsageError(f"bad --weights: {exc}") from None
        if len(parsed) != wt.tree.num_edges:
            raise UsageError(
                f"{wt.tree.num_edges} edges need {wt.tree.num_edges} weights, "
                f"got {len(parsed)}"
            )
        wt = WeightedTree(wt.tree, parsed)
    return wt


def _write(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path``; a write that fails is an error naming it."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise UsageError(f"{path}: {exc.strerror or exc}") from None


def _write_json(path: str | Path | None, data) -> None:
    """Write plain JSON data to ``path`` if one is given."""
    if path is not None:
        _write(path, json.dumps(data, sort_keys=True, indent=2) + "\n")


def _report(
    args,
    start: float,
    lines: list[str],
    operation: str,
    parameters: dict,
    inputs: list,
    counts: dict,
    histograms: dict | None = None,
    ok: bool = True,
) -> int:
    """Print ``lines``, write the --json report, and return the exit status.

    The clock is read first, and only under --timings, so ``elapsed_ms``
    covers the computation since ``start`` and none of the output.  The
    report's digest covers ``inputs``, each a point set or a tree.
    """
    elapsed_ms = None
    if args.timings:
        elapsed_ms = round((time.perf_counter() - start) * 1000.0, 3)
    print(*lines, sep="\n")
    if args.json is not None:
        digest = digest_inputs(*(
            format_point_set(x) if isinstance(x, PointSet) else format_tree(x)
            for x in inputs
        ))
        report = CountReport(
            operation, parameters, digest, counts, histograms or {}, elapsed_ms
        )
        _write(args.json, report.to_json())
    return 0 if ok else CHECK_FAILURE


def _parse_int_list(text: str, flag: str, noun: str) -> list[int]:
    """A comma-separated list of integers naming at least one ``noun``, with
    no empty item."""
    parts = text.split(",")
    if not any(parts):
        raise UsageError(f"{flag} must list at least one {noun}")
    if "" in parts:
        raise UsageError(f"bad {flag}: empty item in {text!r}")
    try:
        return [int(part) for part in parts]
    except ValueError:
        raise UsageError(f"bad {flag}: {text!r}") from None


def _parse_fraction(text: str, flag: str) -> Fraction:
    try:
        return parse_scalar(text)
    except ParseError:
        raise UsageError(f"bad {flag}: {text!r}") from None


def _read_choice(args, kind: str) -> None:
    """Check ``args`` against the row of ``READS[kind]`` that its ``kind``
    flag chose, then fill in the row's defaults.

    A given flag that only other rows read, or a required flag left out, is
    a usage error naming the flags in the parser's declaration order, which
    is the order argparse fills the namespace in.
    """
    choice = getattr(args, kind)
    row = READS[kind][choice]
    flags = set().union(*READS[kind].values())
    given = [name for name, value in vars(args).items() if name in flags and value is not None]
    unread = [f"--{name}" for name in given if name not in row]
    if unread:
        raise UsageError(f"the {choice} {kind} does not read {', '.join(unread)}")
    missing = [f"--{name}" for name in row if row[name] is None and name not in given]
    if missing:
        raise UsageError(f"the {choice} {kind} needs {' and '.join(missing)}")
    for name, default in row.items():
        if name not in given:
            setattr(args, name, default)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_generate(args) -> int:
    _read_choice(args, "construction")
    out = _output_path(args.output, "-o", args)
    sidecar = _output_path(out.with_suffix(".json"), "sidecar", args)
    if sidecar == out:
        raise UsageError(f"-o {out} is also the path of its JSON sidecar; use another suffix")
    if args.construction == "lattice":
        f_out = _output_path(out.with_name(out.stem + "_F" + out.suffix), "dual set", args)
        result = build_unit_lattice(LatticeSpec(args.d, args.q, mode=args.mode))
        written = {out: result.e_points, f_out: result.f_points}
        payload = {"construction": "lattice", "parameters": result.metadata}
        lines = [
            f"wrote {len(result.e_points)} lattice points to {out}",
            f"wrote {len(result.f_points)} dual points to {f_out}",
            f"sidecar {sidecar}",
        ]
    elif args.construction == "random":
        ps = random_point_set(args.n, args.d, seed=args.seed, low=args.low, high=args.high)
        written = {out: ps}
        parameters = {name: getattr(args, name) for name in READS["construction"]["random"]}
        parameters["generator"] = "random.Random (Mersenne Twister)"
        payload = {"construction": "random", "parameters": parameters}
        lines = [f"wrote {len(ps)} random points to {out}"]
    else:
        wt = _resolve_tree(args.tree, None)
        builder = (
            build_column_construction
            if args.construction == "columns"
            else build_perp_lines_3d
        )
        result = builder(wt.tree, args.n)
        written = {out: result.points}
        payload = {
            "construction": args.construction,
            "parameters": result.metadata,
            "tree": {"edges": [list(e) for e in result.tree.edges]},
            "weights": [format_scalar(w) for w in result.weights],
            "predicted_count": result.predicted_count,
            "vertex_assignment": {
                str(v): [[format_scalar(c) for c in p] for p in pts]
                for v, pts in result.vertex_assignment.items()
            },
        }
        lines = [
            f"wrote {len(result.points)} points to {out}",
            f"predicted count {result.predicted_count}, sidecar {sidecar}",
        ]
    for path, ps in written.items():
        _write(path, format_point_set(ps))
    _write_json(sidecar, payload)
    print(*lines, sep="\n")
    return 0


def _cmd_count(args) -> int:
    if args.threads < 1:
        raise UsageError("--threads must be at least 1")
    points = _read_file(args.points, read_point_set)
    wt = _resolve_tree(args.tree, args.weights)
    if wt.weights is None:
        raise UsageError("no weights: give them in the .tree file or via --weights")
    start = time.perf_counter()
    if args.homomorphisms:
        operation = "count_homomorphisms"
        counted = count_homomorphisms(wt, points, include_zero=args.include_zero)
    else:
        operation = "count_embeddings"
        counted = count_embeddings(wt, points, include_zero=args.include_zero)
    parameters = {
        "tree": args.tree,
        "weights": [format_scalar(w) for w in wt.weights],
        "include_zero": args.include_zero,
    }
    return _report(
        args, start, [str(counted)], operation, parameters, [points, wt],
        {"count": counted},
    )


def _cmd_distinct(args) -> int:
    points = _read_file(args.points, read_point_set)
    zero = args.include_zero
    tree = None if args.tree is None else _resolve_tree(args.tree, None).tree
    start = time.perf_counter()
    if tree is None:
        summary = distinct_dot_products(points, include_zero=zero)
        return _report(
            args, start,
            [f"distinct {summary.distinct}", f"max multiplicity {summary.max_multiplicity}"],
            "distinct_dot_products", {"include_zero": zero}, [points],
            {"distinct": summary.distinct, "max_multiplicity": summary.max_multiplicity},
        )
    count = distinct_weight_tuples(tree, points, include_zero=zero)
    return _report(
        args, start, [str(count)], "distinct_weight_tuples",
        {"tree": args.tree, "include_zero": zero}, [points, tree],
        {"distinct_tuples": count},
    )


def _cmd_pinned(args) -> int:
    points = _read_file(args.points, read_point_set)
    zero = args.include_zero
    if args.descent and (args.pin_index, args.tree, args.vertex) != (None, None, None):
        raise UsageError("--descent takes none of --pin-index, --tree and --vertex")
    if args.vertex is not None and args.tree is None:
        raise UsageError("--vertex needs --tree")
    if args.tree is not None:
        if args.vertex is None or args.pin_index is None:
            raise UsageError("pinned tuple counting needs --vertex and --pin-index")
        tree = _resolve_tree(args.tree, None).tree
    start = time.perf_counter()
    if args.descent:
        trace = hyperplane_descent(points, include_zero=zero)
        lines = [
            f"level {i}: pin ({' '.join(format_scalar(c) for c in level.pin)}) "
            f"distinct {level.distinct_count} remaining {level.points_remaining}"
            for i, level in enumerate(trace.levels, 1)
        ]
        lines += [
            f"final points {trace.final_points}",
            f"final pinned count {trace.final_pinned_count}",
            f"reported count {trace.reported_count}",
        ]
        return _report(
            args, start, lines, "hyperplane_descent", {"include_zero": zero}, [points],
            {
                "levels": [lvl.distinct_count for lvl in trace.levels],
                "final_pinned": trace.final_pinned_count,
                "reported": trace.reported_count,
            },
        )
    if args.pin_index is None:
        pin, count = max_pinned(points, include_zero=zero)
        coords = " ".join(format_scalar(c) for c in pin)
        return _report(
            args, start, [f"pin ({coords})", f"pinned count {count}"], "max_pinned",
            {"include_zero": zero}, [points], {"max_pinned": count},
        )
    if not 1 <= args.pin_index <= len(points):
        raise UsageError(f"--pin-index out of range 1..{len(points)}")
    pin = points.points[args.pin_index - 1]
    if args.tree is not None:
        count = pinned_weight_tuples(tree, args.vertex, pin, points, include_zero=zero)
        parameters = {
            "tree": args.tree,
            "vertex": args.vertex,
            "pin_index": args.pin_index,
            "include_zero": zero,
        }
        return _report(
            args, start, [str(count)], "pinned_weight_tuples", parameters,
            [points, tree], {"distinct_tuples": count},
        )
    values = pinned_set(pin, points, include_zero=zero)
    return _report(
        args, start, [str(len(values))], "pinned_set",
        {"pin_index": args.pin_index, "include_zero": zero}, [points],
        {"pinned_size": len(values)},
        histograms={"values": [format_scalar(v) for v in sorted(values)]},
    )


def _cmd_incidence(args) -> int:
    points = _read_file(args.points, read_point_set)
    if (args.lines is None) == (args.pins is None):
        raise UsageError("give exactly one of --lines and --pins")
    if (args.alpha is None) == (args.pins is not None):
        raise UsageError("--alpha is required with --pins and not allowed with --lines")
    if args.lines is not None:
        hyperplanes = _read_file(args.lines, lambda fh: _read_lines(fh, points.dim))
    else:
        alpha = _parse_fraction(args.alpha, "--alpha")
        hyperplanes = _read_file(args.pins, lambda fh: _read_pins(fh, alpha))
    start = time.perf_counter()
    count = incidences(points, hyperplanes)
    return _report(
        args, start, [str(count)], "incidences", {"lines": len(hyperplanes)},
        [points], {"incidences": count},
    )


def _cmd_radial(args) -> int:
    points = _read_file(args.points, read_point_set)
    cap = _parse_fraction(args.cap_c, "--cap-c")
    start = time.perf_counter()
    hist = radial_histogram(points, allow_origin=args.allow_origin)
    ok = hist.within_cap(cap)
    buckets = {",".join(map(str, d)): count for d, count in sorted(hist.buckets.items())}
    lines = [f"{direction}: {count}" for direction, count in buckets.items()]
    lines += [
        f"max {hist.max_count} of {hist.total}",
        f"cap check (C={cap}): {'ok' if ok else 'FAIL'}",
    ]
    return _report(
        args, start, lines, "radial_histogram", {"cap_c": str(cap)}, [points],
        {"max": hist.max_count, "total": hist.total, "cap_ok": int(ok)},
        histograms=buckets,
        ok=ok,
    )


def _cmd_proofgraph(args) -> int:
    points = _read_file(args.points, read_point_set)
    second = _read_file(args.second, read_point_set) if args.second else None
    start = time.perf_counter()
    stats = proof_multigraph(points, second, include_zero=args.include_zero)
    ok = stats.crossing_bound_ok
    lines = [
        f"vertices {stats.vertices}",
        f"edges {stats.edges}",
        f"max multiplicity {stats.max_multiplicity}",
        f"t = max pinned cardinality (per proof usage): {stats.max_pinned_size}",
        f"drawing crossings {stats.drawing_crossings}",
        f"crossing bound check: {'ok' if ok else 'FAIL'}",
    ]
    counts = {
        "vertices": stats.vertices,
        "edges": stats.edges,
        "max_multiplicity": stats.max_multiplicity,
        "max_pinned_cardinality": stats.max_pinned_size,
        "drawing_crossings": stats.drawing_crossings,
        "crossing_bound_ok": int(ok),
    }
    return _report(
        args, start, lines, "proof_multigraph", {"include_zero": args.include_zero},
        [points] if second is None else [points, second], counts, ok=ok,
    )


def _cmd_verify(args) -> int:
    numbers = None
    if args.criteria is not None:
        numbers = _parse_int_list(args.criteria, "--criteria", "criterion")
        if len(set(numbers)) < len(numbers):
            raise UsageError(f"--criteria names a criterion twice: {args.criteria!r}")
    results = run_criteria(numbers)
    passed = sum(1 for r in results if r.passed)
    print(*(r.line() for r in results), f"{passed}/{len(results)} criteria passed", sep="\n")
    entries = [
        {"number": r.number, "name": r.name, "passed": r.passed, "details": r.details}
        for r in results
    ]
    if args.timings:
        for entry, r in zip(entries, results):
            entry["elapsed_ms"] = round(r.elapsed_s * 1000.0, 3)
    _write_json(args.json, entries)
    return 0 if passed == len(results) else CHECK_FAILURE


def _cmd_report(args) -> int:
    _read_choice(args, "experiment")
    kwargs = {}
    if args.threshold_c is not None:
        kwargs["threshold_c"] = _parse_fraction(args.threshold_c, "--threshold-c")
    if args.experiment == "lattice":
        report = lattice_report(args.d, _parse_int_list(args.q, "--q", "size"), **kwargs)
    else:
        wt = _resolve_tree(args.tree, None)
        ns = _parse_int_list(args.n, "--n", "size")
        maker = columns_report if args.experiment == "columns" else perplines_report
        report = maker(wt.tree, ns, tree_label=args.tree, **kwargs)
    sys.stdout.write(format_report_table(report))
    _write_json(args.json, report)
    return 0 if report["pass"] else CHECK_FAILURE


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# The flags several subcommands share; each subcommand declares only the ones
# its handler reads.
SHARED_FLAGS = {
    "--include-zero": dict(
        action="store_true", help="admit zero dot products (excluded by default)"
    ),
    "--json": dict(default=None, help="write a JSON report here"),
    "--timings": dict(
        action="store_true",
        help="include elapsed_ms in JSON reports (breaks byte determinism)",
    ),
}


def _add_shared(p: argparse.ArgumentParser, handler, *flags: str) -> None:
    """The listed shared flags, in the order given, and the handler."""
    for flag in flags:
        p.add_argument(flag, **SHARED_FLAGS[flag])
    p.set_defaults(handler=handler)


_COUNTING = ("--include-zero", "--json", "--timings")


def _declare_generate(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--construction",
        required=True,
        choices=["columns", "perplines", "lattice", "random"],
    )
    p.add_argument("--tree", default=None, help="builtin:<kind>:<size> or .tree file")
    p.add_argument("--n", type=int, default=None, help="total points")
    p.add_argument("--d", type=int, default=None, help="ambient dimension (default 2)")
    p.add_argument("--q", type=int, default=None, help="lattice parameter")
    p.add_argument("--mode", choices=["paper", "calibrated"], help="default calibrated")
    p.add_argument("--low", type=int, default=None, help="random box lower bound (default -50)")
    p.add_argument("--high", type=int, default=None, help="random box upper bound (default 50)")
    p.add_argument("-o", "--output", required=True, help="output .pts path")
    p.add_argument("--seed", type=int, default=None, help="PRNG seed")
    p.set_defaults(handler=_cmd_generate)


def _declare_count(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tree", required=True)
    p.add_argument("--weights", default=None, help="comma-separated rationals")
    p.add_argument("--points", required=True)
    p.add_argument("--homomorphisms", action="store_true", help="count maps without injectivity")
    p.add_argument("--threads", type=int, default=1, help="no effect; must be at least 1")
    _add_shared(p, _cmd_count, *_COUNTING)


def _declare_distinct(p: argparse.ArgumentParser) -> None:
    p.add_argument("--points", required=True)
    p.add_argument("--tree", default=None, help="count distinct weight tuples of this tree")
    _add_shared(p, _cmd_distinct, *_COUNTING)


def _declare_pinned(p: argparse.ArgumentParser) -> None:
    p.add_argument("--points", required=True)
    p.add_argument("--pin-index", type=int, default=None, help="1-based point index")
    p.add_argument("--descent", action="store_true", help="run the hyperplane descent")
    p.add_argument("--tree", default=None)
    p.add_argument("--vertex", type=int, default=None)
    _add_shared(p, _cmd_pinned, *_COUNTING)


def _declare_incidence(p: argparse.ArgumentParser) -> None:
    p.add_argument("--points", required=True)
    p.add_argument("--lines", default=None, help="file of normal coords + value rows")
    p.add_argument("--pins", default=None, help="points whose alpha-lines to use")
    p.add_argument("--alpha", default=None, help="alpha for --pins")
    _add_shared(p, _cmd_incidence, "--json", "--timings")


def _declare_radial(p: argparse.ArgumentParser) -> None:
    p.add_argument("--points", required=True)
    p.add_argument("--cap-c", default="1", help="cap constant C in max <= C n^(2/3)")
    p.add_argument("--allow-origin", action="store_true")
    _add_shared(p, _cmd_radial, "--json", "--timings")


def _declare_proofgraph(p: argparse.ArgumentParser) -> None:
    p.add_argument("--points", required=True)
    p.add_argument("--second", default=None, help="second point set (defaults to the first)")
    _add_shared(p, _cmd_proofgraph, *_COUNTING)


def _declare_verify(p: argparse.ArgumentParser) -> None:
    p.add_argument("--criteria", default=None, help="comma-separated criterion numbers")
    _add_shared(p, _cmd_verify, "--json", "--timings")


def _declare_report(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--experiment", required=True, choices=["columns", "perplines", "lattice"]
    )
    p.add_argument("--tree", default=None)
    p.add_argument("--n", default=None, help="comma-separated sizes")
    p.add_argument("--d", type=int, default=None, help="lattice dimension (default 2)")
    p.add_argument("--q", default=None, help="comma-separated lattice parameters")
    p.add_argument("--threshold-c", default=None, help="rational threshold constant")
    _add_shared(p, _cmd_report, "--json")


# Each subcommand's help line and the step that declares its flags, in the
# order top-level help lists them.
SUBCOMMANDS = {
    "generate": ("generate a construction or random set", _declare_generate),
    "count": ("count tree embeddings (or homomorphisms)", _declare_count),
    "distinct": ("distinct dot products or weight tuples", _declare_distinct),
    "pinned": ("pinned sets, max pin, descent, pinned tuples", _declare_pinned),
    "incidence": ("exact point-hyperplane incidence count", _declare_incidence),
    "radial": ("radial-line histogram and cap check", _declare_radial),
    "proofgraph": ("consecutive-points multigraph statistics", _declare_proofgraph),
    "verify": ("run the self-contained acceptance checks", _declare_verify),
    "report": ("experiment series with comparison report", _declare_report),
}


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser for ``argv``: with ``argv[0]`` a subcommand, only that one
    is declared; otherwise (and with no ``argv``) all of them are.

    A parse of such an ``argv`` never reaches another subcommand's flags, so
    the reduced parser gives the same namespace, help and errors as the full
    one.  The one place the top level shows its subcommands for such an
    ``argv`` is the usage line of an "unrecognized arguments" error, so the
    reduced parser names all of them there through ``metavar``.  Top-level
    help, "invalid choice" and a missing subcommand come from the full parser,
    which sets no ``metavar``: argparse words those two errors differently
    when one is set.  ``tests/test_cli.py`` compares both parsers' output.
    """
    parser = argparse.ArgumentParser(
        prog="dottrees",
        description=(
            "Construct, count, and verify dot-product-weighted tree "
            "configurations in exact rational point sets."
        ),
    )
    named = bool(argv) and argv[0] in SUBCOMMANDS
    sub = parser.add_subparsers(
        dest="subcommand",
        required=True,
        metavar="{" + ",".join(SUBCOMMANDS) + "}" if named else None,
    )
    for name in [argv[0]] if named else SUBCOMMANDS:
        help_text, declare = SUBCOMMANDS[name]
        declare(sub.add_parser(name, help=help_text))
    return parser


# Flags whose value is a rational or a list of them.  argparse reads -1 and
# -0.5, but not -1/2 or -1,3, as a value after a flag, so ``cli_main`` joins a
# token that starts with "-" and a digit to such a flag, or an abbreviation of
# one, just before it: ``--weights=-1/2,3``.
RATIONAL_FLAGS = ("--weights", "--alpha", "--cap-c", "--threshold-c")


def cli_main(argv=None) -> int:
    joined: list[str] = []
    for token in sys.argv[1:] if argv is None else argv:
        flag = joined[-1] if joined else ""
        if re.match(r"-\d", token) and len(flag) > 2 and any(
                f.startswith(flag) for f in RATIONAL_FLAGS):
            joined[-1] = f"{flag}={token}"
        else:
            joined.append(token)
    args = build_parser(joined).parse_args(joined)
    try:
        if getattr(args, "json", None) is not None:
            _output_path(args.json, "--json", args)
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
