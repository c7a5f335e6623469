"""Command-line front end.

Subcommands: generate, count, distinct, pinned, incidence, radial,
proofgraph, verify, report.  Exit status is 0 on success, 1 when a check
fails, and 2 on any malformed input or out-of-range parameter: ``cli_main``
turns every ``ValueError`` (``UsageError`` and ``ParseError`` included) into
an ``error:`` line on stderr.  All outputs are deterministic for a fixed
configuration; timings appear only with --timings.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
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
    alpha_hyperplane,
    format_point_set,
    format_scalar,
    parse_scalar,
    random_point_set,
    read_point_set,
)
from .reports import CountReport, digest_inputs, point_set_digest
from .trees import (
    WeightedTree,
    format_tree,
    make_path,
    make_perfect_binary,
    make_star,
    read_tree,
)

__all__ = ["cli_main", "main", "RunConfig"]

USAGE_ERROR = 2
CHECK_FAILURE = 1


class UsageError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Validated run options shared by the subcommands."""

    subcommand: str
    include_zero: bool
    json_path: Path | None
    timings: bool
    seed: int | None

    @staticmethod
    def from_args(args: argparse.Namespace) -> "RunConfig":
        if getattr(args, "threads", 1) < 1:
            raise UsageError("--threads must be at least 1")
        json_path = getattr(args, "json", None)
        if json_path is not None:
            json_path = Path(json_path)
            if not json_path.parent.exists():
                raise UsageError(f"directory {json_path.parent} does not exist")
        return RunConfig(
            subcommand=args.subcommand,
            include_zero=getattr(args, "include_zero", False),
            json_path=json_path,
            timings=getattr(args, "timings", False),
            seed=getattr(args, "seed", None),
        )


def _input_path(value: str) -> Path:
    path = Path(value)
    if not path.is_file():
        raise UsageError(f"no such file: {path}")
    return path


def _output_path(value: str) -> Path:
    path = Path(value)
    if not path.parent.exists():
        raise UsageError(f"directory {path.parent} does not exist")
    return path


def _load_points(value: str) -> PointSet:
    path = _input_path(value)
    with open(path) as fh:
        try:
            return read_point_set(fh)
        except ParseError as exc:
            raise UsageError(f"{path}: {exc}") from None


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
        if kind == "path":
            tree = make_path(size)
        elif kind == "star":
            tree = make_star(size)
        elif kind == "binary":
            tree = make_perfect_binary(size)
        else:
            raise UsageError(f"unknown builtin tree kind {kind!r}")
        wt = WeightedTree(tree, None)
    else:
        path = _input_path(spec)
        with open(path) as fh:
            try:
                wt = read_tree(fh)
            except ParseError as exc:
                raise UsageError(f"{path}: {exc}") from None
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


def _read_lines_file(value: str, dim: int) -> list[AlphaHyperplane]:
    """Each non-comment row: dim normal coordinates then the value."""
    path = _input_path(value)
    lines = []
    with open(path) as fh:
        for line_no, raw in enumerate(fh, 1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            fields = text.split()
            if len(fields) != dim + 1:
                raise UsageError(
                    f"{path}: line {line_no}: expected {dim + 1} rationals"
                )
            try:
                values = [parse_scalar(f, line_no) for f in fields]
            except ParseError as exc:
                raise UsageError(f"{path}: {exc}") from None
            lines.append(alpha_hyperplane(tuple(values[:-1]), values[-1]))
    return lines


def _write_json(path: Path | None, payload) -> None:
    """Write a CountReport, or plain JSON data, to ``path`` if one is given."""
    if path is None:
        return
    if isinstance(payload, CountReport):
        path.write_text(payload.to_json())
    else:
        path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _elapsed_ms(config: RunConfig, start: float) -> float | None:
    """Milliseconds since ``start``, or None unless --timings was given."""
    if not config.timings:
        return None
    return round((time.perf_counter() - start) * 1000.0, 3)


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part]
    except ValueError:
        raise UsageError(f"bad {flag}: {text!r}") from None


def _parse_fraction(text: str, flag: str) -> Fraction:
    try:
        return parse_scalar(text)
    except ParseError:
        raise UsageError(f"bad {flag}: {text!r}") from None


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_generate(args, config: RunConfig) -> int:
    out = _output_path(args.output)
    sidecar = out.with_suffix(".json")
    if args.construction in ("columns", "perplines"):
        if args.n is None:
            raise UsageError("--n is required for this construction")
        if args.tree is None:
            raise UsageError("--tree is required for this construction")
        wt = _resolve_tree(args.tree, None)
        builder = (
            build_column_construction
            if args.construction == "columns"
            else build_perp_lines_3d
        )
        result = builder(wt.tree, args.n)
        out.write_text(format_point_set(result.points))
        payload = {
            "construction": args.construction,
            "parameters": dict(sorted(result.metadata.items())),
            "tree": {"edges": [list(e) for e in result.tree.edges]},
            "weights": [format_scalar(w) for w in result.weights],
            "predicted_count": result.predicted_count,
            "vertex_assignment": {
                str(v): [[format_scalar(c) for c in p] for p in pts]
                for v, pts in sorted(result.vertex_assignment.items())
            },
        }
        _write_json(sidecar, payload)
        print(f"wrote {len(result.points)} points to {out}")
        print(f"predicted count {result.predicted_count}, sidecar {sidecar}")
        return 0
    if args.construction == "lattice":
        if args.q is None:
            raise UsageError("--q is required for the lattice construction")
        spec = LatticeSpec(args.d, args.q, mode=args.mode)
        result = build_unit_lattice(spec)
        f_out = out.with_name(out.stem + "_F" + out.suffix)
        out.write_text(format_point_set(result.e_points))
        f_out.write_text(format_point_set(result.f_points))
        payload = {
            "construction": "lattice",
            "parameters": dict(sorted(result.metadata.items())),
        }
        _write_json(sidecar, payload)
        print(f"wrote {len(result.e_points)} lattice points to {out}")
        print(f"wrote {len(result.f_points)} dual points to {f_out}")
        print(f"sidecar {sidecar}")
        return 0
    if args.construction == "random":
        if args.n is None:
            raise UsageError("--n is required for the random construction")
        if config.seed is None:
            raise UsageError("--seed is mandatory for randomized generation")
        ps = random_point_set(
            args.n, args.d, seed=config.seed, low=args.low, high=args.high
        )
        out.write_text(format_point_set(ps))
        payload = {
            "construction": "random",
            "parameters": {
                "n": args.n,
                "d": args.d,
                "seed": config.seed,
                "low": args.low,
                "high": args.high,
                "generator": "random.Random (Mersenne Twister)",
            },
        }
        _write_json(sidecar, payload)
        print(f"wrote {len(ps)} random points to {out}")
        return 0
    raise UsageError(f"unknown construction {args.construction!r}")


def _cmd_count(args, config: RunConfig) -> int:
    points = _load_points(args.points)
    wt = _resolve_tree(args.tree, args.weights)
    if wt.weights is None:
        raise UsageError("no weights: give them in the .tree file or via --weights")
    start = time.perf_counter()
    if args.homomorphisms:
        counted = count_homomorphisms(wt, points, include_zero=config.include_zero)
    else:
        counted = count_embeddings(wt, points, include_zero=config.include_zero)
    elapsed_ms = _elapsed_ms(config, start)
    print(counted)
    _write_json(config.json_path, CountReport(
        "count_homomorphisms" if args.homomorphisms else "count_embeddings",
        {
            "tree": args.tree,
            "weights": [format_scalar(w) for w in wt.weights],
            "include_zero": config.include_zero,
        },
        digest_inputs(format_point_set(points), format_tree(wt)),
        {"count": counted},
        elapsed_ms=elapsed_ms,
    ))
    return 0


def _cmd_distinct(args, config: RunConfig) -> int:
    points = _load_points(args.points)
    start = time.perf_counter()
    if args.tree is None:
        summary = distinct_dot_products(points, include_zero=config.include_zero)
        elapsed_ms = _elapsed_ms(config, start)
        print(f"distinct {summary.distinct}")
        print(f"max multiplicity {summary.max_multiplicity}")
        _write_json(config.json_path, CountReport(
            "distinct_dot_products",
            {"include_zero": config.include_zero},
            point_set_digest(points),
            {
                "distinct": summary.distinct,
                "max_multiplicity": summary.max_multiplicity,
            },
            elapsed_ms=elapsed_ms,
        ))
        return 0
    wt = _resolve_tree(args.tree, None)
    count = distinct_weight_tuples(wt.tree, points, include_zero=config.include_zero)
    elapsed_ms = _elapsed_ms(config, start)
    print(count)
    _write_json(config.json_path, CountReport(
        "distinct_weight_tuples",
        {"tree": args.tree, "include_zero": config.include_zero},
        digest_inputs(format_point_set(points), format_tree(wt.tree)),
        {"distinct_tuples": count},
        elapsed_ms=elapsed_ms,
    ))
    return 0


def _cmd_pinned(args, config: RunConfig) -> int:
    points = _load_points(args.points)
    start = time.perf_counter()
    if args.descent:
        trace = hyperplane_descent(points, include_zero=config.include_zero)
        elapsed_ms = _elapsed_ms(config, start)
        for i, level in enumerate(trace.levels, 1):
            pin = " ".join(format_scalar(c) for c in level.pin)
            print(
                f"level {i}: pin ({pin}) distinct {level.distinct_count} "
                f"remaining {level.points_remaining}"
            )
        print(f"final points {trace.final_points}")
        print(f"final pinned count {trace.final_pinned_count}")
        print(f"reported count {trace.reported_count}")
        _write_json(config.json_path, CountReport(
            "hyperplane_descent",
            {"include_zero": config.include_zero},
            point_set_digest(points),
            {
                "levels": [lvl.distinct_count for lvl in trace.levels],
                "final_pinned": trace.final_pinned_count,
                "reported": trace.reported_count,
            },
            elapsed_ms=elapsed_ms,
        ))
        return 0
    if args.tree is not None:
        if args.vertex is None or args.pin_index is None:
            raise UsageError("pinned tuple counting needs --vertex and --pin-index")
        wt = _resolve_tree(args.tree, None)
        if not 1 <= args.pin_index <= len(points):
            raise UsageError(f"--pin-index out of range 1..{len(points)}")
        pin = points.points[args.pin_index - 1]
        count = pinned_weight_tuples(
            wt.tree, args.vertex, pin, points, include_zero=config.include_zero
        )
        elapsed_ms = _elapsed_ms(config, start)
        print(count)
        _write_json(config.json_path, CountReport(
            "pinned_weight_tuples",
            {
                "tree": args.tree,
                "vertex": args.vertex,
                "pin_index": args.pin_index,
                "include_zero": config.include_zero,
            },
            digest_inputs(format_point_set(points), format_tree(wt.tree)),
            {"distinct_tuples": count},
            elapsed_ms=elapsed_ms,
        ))
        return 0
    if args.pin_index is not None:
        if not 1 <= args.pin_index <= len(points):
            raise UsageError(f"--pin-index out of range 1..{len(points)}")
        pin = points.points[args.pin_index - 1]
        values = pinned_set(pin, points, include_zero=config.include_zero)
        elapsed_ms = _elapsed_ms(config, start)
        print(len(values))
        _write_json(config.json_path, CountReport(
            "pinned_set",
            {"pin_index": args.pin_index, "include_zero": config.include_zero},
            point_set_digest(points),
            {"pinned_size": len(values)},
            histograms={
                "values": [format_scalar(v) for v in sorted(values)],
            },
            elapsed_ms=elapsed_ms,
        ))
        return 0
    pin, count = max_pinned(points, include_zero=config.include_zero)
    elapsed_ms = _elapsed_ms(config, start)
    coords = " ".join(format_scalar(c) for c in pin)
    print(f"pin ({coords})")
    print(f"pinned count {count}")
    _write_json(config.json_path, CountReport(
        "max_pinned",
        {"include_zero": config.include_zero},
        point_set_digest(points),
        {"max_pinned": count},
        elapsed_ms=elapsed_ms,
    ))
    return 0


def _cmd_incidence(args, config: RunConfig) -> int:
    points = _load_points(args.points)
    if args.lines is None and args.pins is None:
        raise UsageError("give --lines or --pins with --alpha")
    start = time.perf_counter()
    if args.lines is not None:
        lines = _read_lines_file(args.lines, points.dim)
    else:
        if args.alpha is None:
            raise UsageError("--pins needs --alpha")
        pins = _load_points(args.pins)
        alpha = _parse_fraction(args.alpha, "--alpha")
        lines = [alpha_hyperplane(p, alpha) for p in pins.points]
    count = incidences(points, lines)
    elapsed_ms = _elapsed_ms(config, start)
    print(count)
    _write_json(config.json_path, CountReport(
        "incidences",
        {"lines": len(lines)},
        point_set_digest(points),
        {"incidences": count},
        elapsed_ms=elapsed_ms,
    ))
    return 0


def _cmd_radial(args, config: RunConfig) -> int:
    points = _load_points(args.points)
    cap = _parse_fraction(args.cap_c, "--cap-c")
    start = time.perf_counter()
    hist = radial_histogram(points, allow_origin=args.allow_origin)
    elapsed_ms = _elapsed_ms(config, start)
    for direction in sorted(hist.buckets, key=lambda d: d.primitive):
        print(f"{direction}: {hist.buckets[direction]}")
    print(f"max {hist.max_count} of {hist.total}")
    ok = hist.within_cap(cap)
    print(f"cap check (C={cap}): {'ok' if ok else 'FAIL'}")
    _write_json(config.json_path, CountReport(
        "radial_histogram",
        {"cap_c": str(cap)},
        point_set_digest(points),
        {"max": hist.max_count, "total": hist.total, "cap_ok": int(ok)},
        histograms={str(d): c for d, c in sorted(hist.buckets.items(), key=lambda kv: kv[0].primitive)},
        elapsed_ms=elapsed_ms,
    ))
    return 0 if ok else CHECK_FAILURE


def _cmd_proofgraph(args, config: RunConfig) -> int:
    points = _load_points(args.points)
    second = _load_points(args.second) if args.second else None
    start = time.perf_counter()
    stats = proof_multigraph(points, second, include_zero=config.include_zero)
    elapsed_ms = _elapsed_ms(config, start)
    print(f"vertices {stats.vertices}")
    print(f"edges {stats.edges}")
    print(f"max multiplicity {stats.max_multiplicity}")
    print(f"t = max pinned cardinality (per proof usage): {stats.max_pinned_size}")
    print(f"drawing crossings {stats.drawing_crossings}")
    print(f"crossing bound check: {'ok' if stats.crossing_bound_ok else 'FAIL'}")
    _write_json(config.json_path, CountReport(
        "proof_multigraph",
        {"include_zero": config.include_zero},
        point_set_digest(points)
        if second is None
        else digest_inputs(format_point_set(points), format_point_set(second)),
        {
            "vertices": stats.vertices,
            "edges": stats.edges,
            "max_multiplicity": stats.max_multiplicity,
            "max_pinned_cardinality": stats.max_pinned_size,
            "drawing_crossings": stats.drawing_crossings,
            "crossing_bound_ok": int(stats.crossing_bound_ok),
        },
        elapsed_ms=elapsed_ms,
    ))
    return 0 if stats.crossing_bound_ok else CHECK_FAILURE


def _cmd_verify(args, config: RunConfig) -> int:
    numbers = _parse_int_list(args.criteria, "--criteria") if args.criteria else None
    results = run_criteria(numbers)
    for result in results:
        print(result.line())
    passed = sum(1 for r in results if r.passed)
    print(f"{passed}/{len(results)} criteria passed")
    _write_json(
        config.json_path,
        [
            {
                "number": r.number,
                "name": r.name,
                "passed": r.passed,
                "details": r.details,
            }
            for r in results
        ],
    )
    return 0 if passed == len(results) else CHECK_FAILURE


def _cmd_report(args, config: RunConfig) -> int:
    threshold = _parse_fraction(args.threshold_c, "--threshold-c") if args.threshold_c else None
    if args.experiment in ("columns", "perplines"):
        if args.tree is None or args.n is None:
            raise UsageError("this experiment needs --tree and --n")
        wt = _resolve_tree(args.tree, None)
        ns = _parse_int_list(args.n, "--n")
        if not ns:
            raise UsageError("--n must list at least one size")
        maker = columns_report if args.experiment == "columns" else perplines_report
        kwargs = {"tree_label": args.tree}
        if threshold is not None:
            kwargs["threshold_c"] = threshold
        report = maker(wt.tree, ns, **kwargs)
    elif args.experiment == "lattice":
        if args.q is None:
            raise UsageError("the lattice experiment needs --q")
        qs = _parse_int_list(args.q, "--q")
        if not qs:
            raise UsageError("--q must list at least one size")
        kwargs = {}
        if threshold is not None:
            kwargs["threshold_c"] = threshold
        report = lattice_report(args.d, qs, **kwargs)
    else:
        raise UsageError(f"unknown experiment {args.experiment!r}")
    sys.stdout.write(format_report_table(report))
    _write_json(config.json_path, report)
    return 0 if report["pass"] else CHECK_FAILURE


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dottrees",
        description=(
            "Construct, count, and verify dot-product-weighted tree "
            "configurations in exact rational point sets."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--threads", type=int, default=1, help="no effect; must be at least 1")
        p.add_argument("--seed", type=int, default=None, help="PRNG seed")
        p.add_argument(
            "--include-zero",
            action="store_true",
            help="admit zero dot products (excluded by default)",
        )
        p.add_argument("--json", default=None, help="write a JSON report here")
        p.add_argument(
            "--timings",
            action="store_true",
            help="include elapsed_ms in JSON reports (breaks byte determinism)",
        )

    p = sub.add_parser("generate", help="generate a construction or random set")
    p.add_argument(
        "--construction",
        required=True,
        choices=["columns", "perplines", "lattice", "random"],
    )
    p.add_argument("--tree", default=None, help="builtin:<kind>:<size> or .tree file")
    p.add_argument("--n", type=int, default=None, help="total points")
    p.add_argument("--d", type=int, default=2, help="ambient dimension")
    p.add_argument("--q", type=int, default=None, help="lattice parameter")
    p.add_argument("--mode", default="calibrated", choices=["paper", "calibrated"])
    p.add_argument("--low", type=int, default=-50, help="random box lower bound")
    p.add_argument("--high", type=int, default=50, help="random box upper bound")
    p.add_argument("-o", "--output", required=True, help="output .pts path")
    add_common(p)

    p = sub.add_parser("count", help="count tree embeddings (or homomorphisms)")
    p.add_argument("--tree", required=True)
    p.add_argument("--weights", default=None, help="comma-separated rationals")
    p.add_argument("--points", required=True)
    p.add_argument("--homomorphisms", action="store_true", help="count maps without injectivity")
    add_common(p)

    p = sub.add_parser("distinct", help="distinct dot products or weight tuples")
    p.add_argument("--points", required=True)
    p.add_argument("--tree", default=None, help="count distinct weight tuples of this tree")
    add_common(p)

    p = sub.add_parser("pinned", help="pinned sets, max pin, descent, pinned tuples")
    p.add_argument("--points", required=True)
    p.add_argument("--pin-index", type=int, default=None, help="1-based point index")
    p.add_argument("--descent", action="store_true", help="run the hyperplane descent")
    p.add_argument("--tree", default=None)
    p.add_argument("--vertex", type=int, default=None)
    add_common(p)

    p = sub.add_parser("incidence", help="exact point-line incidence count")
    p.add_argument("--points", required=True)
    p.add_argument("--lines", default=None, help="file of normal coords + value rows")
    p.add_argument("--pins", default=None, help="points whose alpha-lines to use")
    p.add_argument("--alpha", default=None, help="alpha for --pins")
    add_common(p)

    p = sub.add_parser("radial", help="radial-line histogram and cap check")
    p.add_argument("--points", required=True)
    p.add_argument("--cap-c", default="1", help="cap constant C in max <= C n^(2/3)")
    p.add_argument("--allow-origin", action="store_true")
    add_common(p)

    p = sub.add_parser("proofgraph", help="consecutive-points multigraph statistics")
    p.add_argument("--points", required=True)
    p.add_argument("--second", default=None, help="second point set (defaults to the first)")
    add_common(p)

    p = sub.add_parser("verify", help="run the self-contained acceptance checks")
    p.add_argument("--criteria", default=None, help="comma-separated criterion numbers")
    add_common(p)

    p = sub.add_parser("report", help="experiment series with comparison report")
    p.add_argument(
        "--experiment", required=True, choices=["columns", "perplines", "lattice"]
    )
    p.add_argument("--tree", default=None)
    p.add_argument("--n", default=None, help="comma-separated sizes")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--q", default=None, help="comma-separated lattice parameters")
    p.add_argument("--threshold-c", default=None, help="rational threshold constant")
    add_common(p)

    return parser


_HANDLERS = {
    "generate": _cmd_generate,
    "count": _cmd_count,
    "distinct": _cmd_distinct,
    "pinned": _cmd_pinned,
    "incidence": _cmd_incidence,
    "radial": _cmd_radial,
    "proofgraph": _cmd_proofgraph,
    "verify": _cmd_verify,
    "report": _cmd_report,
}


def cli_main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = RunConfig.from_args(args)
        return _HANDLERS[args.subcommand](args, config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(cli_main())
