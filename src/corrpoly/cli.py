"""Command-line frontend for the correlation polytope toolkit.

Exit codes: 0 success, 1 usage error, 2 input parse error, 3 capacity
exceeded, 4 internal invariant failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from dataclasses import asdict

from . import io as cpio
from .core import (
    CapacityError,
    Configuration,
    ParseError,
    enumerate_events,
    event_count,
    parse_count,
    parse_number,
)
from .inequalities import (
    Inequality, normalised_row, parse_text, selected_rows, to_text, with_layout)
from .polyhedra import (
    DEFAULT_RAY_CAP,
    ENUM_ORDER,
    HULL_ORDER,
    ORDERS,
    HRepresentation,
    contains,
    enumerate_vertices,
    hull,
    verify_facet,
)
from .quantum import (
    BUILTIN_MODELS,
    builtin_model,
    parse_angle_expression,
    parse_angles,
    sample_violation_curve,
    sample_violation_grid,
    scan_violations,
)
from .vertices import DEFAULT_VERTEX_CAP, truth_table

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_CAPACITY = 3
EXIT_INTERNAL = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit with code 1
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _resolve_config(args) -> Configuration | None:
    given_nm = args.particles is not None or args.settings is not None
    if args.config and given_nm:
        raise ValueError("--config and -n/-m are mutually exclusive")
    if args.config:
        try:
            settings = tuple(map(parse_count, args.config.split(",")))
        except ValueError:
            raise ValueError(f"bad --config value {args.config!r}") from None
        return Configuration(settings)
    if given_nm:
        if args.particles is None or args.settings is None:
            raise ValueError("-n and -m must be given together")
        return Configuration.uniform(args.particles, args.settings)
    if args.config_required:
        raise ValueError("no configuration given (use -n/-m or --config)")
    return None


def _count_arg(text: str) -> int:
    """``type`` of the count flags: ``parse_count``, failing as a usage error."""
    try:
        return parse_count(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _threshold_arg(text: str) -> float:
    """``type`` of ``--threshold``: ``float``, but of ASCII text without ``_``."""
    try:
        if text.isascii() and "_" not in text:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"bad threshold {text!r}")


def _ray_cap(args) -> int:
    """``--ray-cap``, else a non-empty ``CORRPOLY_RAY_CAP``, else the default."""
    name, text = "--ray-cap", args.ray_cap
    if text is None:
        name, text = "CORRPOLY_RAY_CAP", os.environ.get("CORRPOLY_RAY_CAP")
        if not text:
            return DEFAULT_RAY_CAP
    try:
        return parse_count(text)
    except ValueError:
        raise ValueError(f"bad {name} value {text!r}: a ray cap is a count "
                         "in ASCII digits") from None


def _parse_rows(text: str) -> tuple[int, int] | None:
    if text is None or text.lower() == "all":
        return None
    try:
        lo, hi = text.split(":")
        return parse_count(lo), parse_count(hi)
    except ValueError:
        raise ValueError(f"--rows expects MIN:MAX or 'all', got {text!r}") from None


def _parse_range(text: str) -> tuple[float, float]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ValueError(f"range expects LO:HI, got {text!r}")
    return (_const_angle(lo), _const_angle(hi))


def _const_angle(text: str) -> float:
    expr = parse_angle_expression(text)
    if not expr.is_constant:
        raise ValueError(f"range bound {text!r} must be constant")
    return expr.const


def _progress(done: int, total: int, rays: int) -> None:
    step = max(1, total // 10)
    if done % step == 0 or done == total:
        print(f"  {done}/{total} constraints, {rays} rays", file=sys.stderr)


def _dd_options(args) -> dict:
    """The ``order``, ``ray_cap`` and ``progress`` of ``hull`` and ``enum``."""
    return {"order": args.order, "ray_cap": _ray_cap(args),
            "progress": None if args.quiet else _progress}


def _emit(args, record: dict, lines) -> None:
    """Print ``record`` as one line of JSON under ``--json``, else ``lines``."""
    for line in [json.dumps(record)] if args.json else lines:
        print(line)


def _load_hrep(args) -> HRepresentation:
    """Read ``--ine``; -n/-m/--config fill in a layout the file does not give."""
    hrep = with_layout(cpio.read_ine(args.ine), _resolve_config(args), args.ine)
    if hrep.config is None:
        raise ValueError("no configuration in file; pass -n/-m or --config")
    return hrep


def _load_model_inputs(args):
    """The facets, the model and the angles of ``violations``/``plot``/``contour``."""
    hrep = _load_hrep(args)
    return hrep, builtin_model(args.model), parse_angles(args.angles, hrep.config)


def cmd_events(args) -> None:
    config = _resolve_config(args)
    # Every label is built before the first prints; a layout has fewer
    # events than truth-table rows, so the vertex cap bounds them too.
    count = event_count(config)
    if count > DEFAULT_VERTEX_CAP:  # a count past 64 bits is not printed: it may be unbounded
        shown = count if count.bit_length() <= 64 else "more than 2**64"
        raise CapacityError(f"layout has {shown} events, exceeding the cap of "
                            f"{DEFAULT_VERTEX_CAP}")
    for ev in enumerate_events(config):
        print(ev.label())


def cmd_vertices(args) -> None:
    config = _resolve_config(args)
    vrep = truth_table(config, max_rows=args.vertex_cap)
    if args.output:
        path = cpio.write_ext(vrep, args.output)
        print(f"wrote {path} ({len(vrep.vertices)} vertices)")
        return
    print(" ".join(ev.label() for ev in enumerate_events(config)))
    for row in vrep.vertices:
        print(" ".join(str(x) for x in row))


def cmd_hull(args) -> None:
    if args.ext:
        if args.particles is not None or args.settings is not None or args.config:
            raise ValueError("--ext and -n/-m/--config are mutually exclusive")
        vrep = cpio.read_ext(args.ext)
    else:
        config = _resolve_config(args)
        if config is None:
            raise ValueError("give either --ext FILE or a configuration")
        vrep = truth_table(config, max_rows=args.vertex_cap)
    hrep = hull(vrep, **_dd_options(args))
    facets = len(hrep.inequality_indices)
    if args.output:
        path = cpio.write_ine(hrep, args.output)
        print(f"wrote {path}")
    extra = f" and {len(hrep.linearity)} equalities" if hrep.linearity else ""
    print(f"{facets} facets{extra}")


def cmd_enum(args) -> None:
    hrep = cpio.read_ine(args.ine)
    vrep = enumerate_vertices(hrep, **_dd_options(args))
    if args.output:
        path = cpio.write_ext(vrep, args.output)
        print(f"wrote {path}")
    print("empty polyhedron" if vrep.is_empty
          else f"{len(vrep.vertices)} vertices, {len(vrep.rays)} rays")


def cmd_inequalities(args) -> None:
    hrep = _load_hrep(args)
    texts = [to_text(Inequality(*normalised_row(row), hrep.config))
             for _, row in selected_rows(hrep, rows=_parse_rows(args.rows))]
    for text in texts:  # every row is read before any is printed
        print(text)


def cmd_violations(args) -> None:
    hrep, model, angles = _load_model_inputs(args)
    reports = scan_violations(
        hrep, model, angles=angles,
        rows=_parse_rows(args.rows), threshold=args.threshold,
    )
    if args.csv:
        cpio.write_violation_csv(reports, args.csv)
    found = [{"row": r.row, "inequality": to_text(r.inequality), "amount": r.amount}
             for r in reports]
    _emit(args, {"violations": found},
          (f"{v['row']}\t{v['amount']:.9g}\t{v['inequality']}" for v in found))
    if args.json:
        return
    sys.stdout.flush()  # on one merged stream, the count follows the rows
    print(f"{len(reports)} violated", file=sys.stderr)


def cmd_plot(args) -> None:
    hrep, model, angles = _load_model_inputs(args)
    curves = sample_violation_curve(
        hrep, model, angles=angles,
        x_range=_parse_range(args.range), samples=args.samples,
        rows=_parse_rows(args.rows), threshold=args.threshold,
    )
    if not curves:
        print("no violated inequalities in range")
        return
    path = cpio.write_curve_csv(curves, args.output)
    print(f"wrote {path} ({len(curves)} curves)")
    if args.svg:
        print(f"wrote {cpio.render_svg(curves, args.svg)}")


def cmd_contour(args) -> None:
    hrep, model, angles = _load_model_inputs(args)
    grids = sample_violation_grid(
        hrep, model, angles=angles,
        x_range=_parse_range(args.range_x), y_range=_parse_range(args.range_y),
        samples_x=args.samples, samples_y=args.samples,
        rows=_parse_rows(args.rows), threshold=args.threshold,
    )
    if not grids:
        print("no violated inequalities in range")
        return
    for grid in grids:
        path = cpio.write_grid_csv(grid, f"{args.output}_row{grid.row}.csv")
        print(f"wrote {path}")
        if args.svg:
            print(f"wrote {cpio.render_svg(grid, f'{args.output}_row{grid.row}.svg')}")


def cmd_verify(args) -> None:
    config = _resolve_config(args)
    # The cap check comes first: parsing builds every event label.
    vrep = truth_table(config, max_rows=args.vertex_cap)
    ineq = parse_text(args.ineq, config)
    report = verify_facet(ineq.to_hrow(), vrep)
    _emit(args, asdict(report), [f"valid: {'yes' if report.valid else 'no'}",
                                 f"tight generators: {report.tight_count}",
                                 f"facet: {'yes' if report.is_facet else 'no'}"])


def cmd_contains(args) -> None:
    hrep = cpio.read_ine(args.ine)
    point = tuple(parse_number(tok) for tok in args.point.split(","))
    inside = contains(hrep, point)
    _emit(args, {"contains": inside}, ["yes" if inside else "no"])


def _range_help(flag: str, axis: str) -> str:
    # argparse reads a value led by '-' as a flag unless it is a plain number
    return (f"{axis} interval (default: %(default)s); a LO led by '-' needs "
            f"'=', as in {flag}=-pi:0")


def build_parser() -> _Parser:
    parser = _Parser(prog="corrpoly",
                     description="correlation polytope toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags shared by several commands, each declared once in a parent
    # parser that the commands list.  A command with a layout takes it from
    # -n/-m/--config when given; those that need one set config_required.
    layout = argparse.ArgumentParser(add_help=False)
    layout.add_argument("-n", "--particles", type=_count_arg, metavar="N",
                        help="number of particles (with -m)")
    layout.add_argument("-m", "--settings", type=_count_arg, metavar="M",
                        help="measurement settings per particle (with -n)")
    layout.add_argument("--config", metavar="M1,M2,...",
                        help="per-particle setting counts, e.g. 2,3")
    layout.set_defaults(config_required=False)
    ine = argparse.ArgumentParser(add_help=False)
    ine.add_argument("--ine", required=True, metavar="FILE",
                     help="H-representation (.ine file)")
    rows = argparse.ArgumentParser(add_help=False)
    rows.add_argument("--rows", default=None, metavar="MIN:MAX|all",
                      help="rows as numbered in the .ine file")
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--model", required=True, choices=BUILTIN_MODELS)
    model.add_argument("--angles", required=True, metavar="'0,2pi/3;0,pi'",
                       help="per particle, comma-separated; particles split by ';'")
    model.add_argument("--threshold", type=_threshold_arg, default=0.0,
                       help="report rows whose violation exceeds this (default: "
                            "%(default)s); only plot and contour take a negative "
                            "value, and one that is not a plain number needs '=', "
                            "as in --threshold=-inf")
    dd = argparse.ArgumentParser(add_help=False)
    dd.add_argument("--ray-cap", default=None,
                    help="intermediate ray cap (or env CORRPOLY_RAY_CAP)")
    dd.add_argument("-q", "--quiet", action="store_true",
                    help="suppress progress output")
    vertex_cap = argparse.ArgumentParser(add_help=False)
    vertex_cap.add_argument("--vertex-cap", type=_count_arg, default=DEFAULT_VERTEX_CAP,
                            help="largest truth table to build (default: %(default)s rows)")
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true", help="print JSON")

    p = sub.add_parser("events", help="list canonical event labels", parents=[layout])
    p.set_defaults(func=cmd_events, config_required=True)

    p = sub.add_parser("vertices", help="truth-table vertices (print or .ext)",
                       parents=[layout, vertex_cap])
    p.add_argument("-o", "--output", metavar="FILE", help="write a .ext file")
    p.set_defaults(func=cmd_vertices, config_required=True)

    p = sub.add_parser("hull", help="facet enumeration (V- to H-representation)",
                       parents=[layout, dd, vertex_cap])
    p.add_argument("--ext", metavar="FILE", help="read vertices from a .ext file")
    p.add_argument("-o", "--output", metavar="FILE", help="write a .ine file")
    p.add_argument("--order", default=HULL_ORDER,
                   help=f"generator insertion order: {ORDERS} (default: %(default)s)")
    p.set_defaults(func=cmd_hull)

    p = sub.add_parser("enum", help="vertex enumeration (H- to V-representation)",
                       parents=[ine, dd])
    p.add_argument("-o", "--output", metavar="FILE", help="write a .ext file")
    p.add_argument("--order", default=ENUM_ORDER,
                   help=f"constraint insertion order: {ORDERS} (default: %(default)s)")
    p.set_defaults(func=cmd_enum)

    p = sub.add_parser("inequalities", help="print readable inequalities",
                       parents=[layout, ine, rows])
    p.set_defaults(func=cmd_inequalities)

    p = sub.add_parser("violations", help="scan for quantum violations",
                       parents=[layout, ine, model, rows, as_json])
    p.add_argument("--csv", metavar="FILE", help="also write a CSV report")
    p.set_defaults(func=cmd_violations)

    p = sub.add_parser("plot", help="violation curves over one free variable x",
                       parents=[layout, ine, model, rows])
    p.add_argument("--range", default="0:pi", metavar="LO:HI",
                   help=_range_help("--range", "x"))
    p.add_argument("--samples", type=_count_arg, default=101)
    p.add_argument("-o", "--output", required=True, metavar="CSV")
    p.add_argument("--svg", metavar="FILE")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("contour", help="violation grids over free variables x, y",
                       parents=[layout, ine, model, rows])
    p.add_argument("--range-x", default="0:pi", metavar="LO:HI",
                   help=_range_help("--range-x", "x"))
    p.add_argument("--range-y", default="0:pi", metavar="LO:HI",
                   help=_range_help("--range-y", "y"))
    p.add_argument("--samples", type=_count_arg, default=41)
    p.add_argument("-o", "--output", required=True, metavar="PREFIX")
    p.add_argument("--svg", action="store_true", help="also write SVG per grid")
    p.set_defaults(func=cmd_contour)

    p = sub.add_parser("verify", help="check an inequality against a configuration",
                       parents=[layout, vertex_cap, as_json])
    p.add_argument("--ineq", required=True, metavar="'a1 - a1b1 + b1 <= 1'")
    p.set_defaults(func=cmd_verify, config_required=True)

    p = sub.add_parser("contains", help="exact membership test for a point",
                       parents=[ine, as_json])
    p.add_argument("--point", required=True, metavar="X1,X2,...",
                   help="exact coordinates, e.g. 3/5,18/25,8/25")
    p.set_defaults(func=cmd_contains)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.func(args)
    except ParseError as exc:
        print(f"corrpoly: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CapacityError as exc:
        print(f"corrpoly: capacity exceeded: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except OSError as exc:
        print(f"corrpoly: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"corrpoly: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
