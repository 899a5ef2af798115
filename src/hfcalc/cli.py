"""Command line interface.

Subcommands: ``compute``, ``point-table``, ``check {splitting|mv|a1|pbf|
grothendieck|transfer}``, ``aj``.  Output is a human-readable table by
default or machine-readable JSON with ``--format json`` (validating against
the schema shipped in ``hfcalc/data/result.schema.json``).  Output is
byte-identical across runs for identical inputs.

Exit codes: 0 success, 1 domain error (the engine's message verbatim on
stderr), 2 usage error.  The Abel-Jacobi working precision is controlled by
the environment variable ``HFCALC_AJ_PRECISION`` (decimal digits, default
40); everything else is flag-driven.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from mpmath import mp, mpc

from hfcalc.abeljacobi import Divisor, EllipticCurve
from hfcalc.engine import (
    a1_invariance_check,
    grothendieck_check,
    hfc_group,
    mv_consistency,
    pbf_check,
    point_table,
    rational_splitting_check,
    transfer_normalization_check,
)
from hfcalc.errors import CalcError, ParseError
from hfcalc.io import (
    descriptor_to_json,
    emit_space,
    load_theory_argument,
    parse_ring_element,
    parse_space_text,
    render_descriptor,
)
from hfcalc.spaces import KahlerModel, Model, QuasiProjModel

__all__ = ["main", "run"]


def _load_space(path: str) -> Model:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read space file {path!r}: {exc}")
    return parse_space_text(text)


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ParseError(f"range {text!r} must look like A..B")
    try:
        a, b = int(lo), int(hi)
    except ValueError:
        raise ParseError(f"range {text!r} must have integer endpoints")
    if a > b:
        raise ParseError(f"range {text!r} is empty")
    return a, b


def _emit(lines: list[str], out) -> None:
    for line in lines:
        out.write(line + "\n")


def _emit_json(obj, out) -> None:
    out.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


# -- compute ------------------------------------------------------------------------


def _cmd_compute(args, out) -> int:
    model = _load_space(args.space)
    theory = load_theory_argument(args.theory)
    variant = args.variant or ("analytic" if isinstance(model, KahlerModel) else "log")
    desc = hfc_group(model, theory, args.n, args.p, variant)
    if args.format == "json":
        _emit_json(
            {
                "command": "compute",
                "space": model.name,
                "theory": theory.name,
                "n": args.n,
                "p": args.p,
                "variant": variant,
                "descriptor": descriptor_to_json(desc),
            },
            out,
        )
    else:
        _emit(
            [
                f"space: {model.name}",
                f"theory: {theory.name}   variant: {variant}",
                f"(n, p) = ({args.n}, {args.p})",
                f"group: {render_descriptor(desc, args.ascii)}",
                f"exactness: {desc.exactness}",
            ],
            out,
        )
    return 0


# -- point-table ----------------------------------------------------------------------


def _cmd_point_table(args, out) -> int:
    theory = load_theory_argument(args.theory)
    n_range = _parse_range(args.n_range)
    p_range = _parse_range(args.p_range)
    table = point_table(theory, n_range, p_range)
    if args.format == "json":
        cells = [
            {"n": n, "p": p, "descriptor": descriptor_to_json(table[(n, p)])}
            for n in range(n_range[0], n_range[1] + 1)
            for p in range(p_range[0], p_range[1] + 1)
        ]
        _emit_json(
            {
                "command": "point-table",
                "theory": theory.name,
                "n_range": list(n_range),
                "p_range": list(p_range),
                "cells": cells,
            },
            out,
        )
        return 0
    ps = list(range(p_range[0], p_range[1] + 1))
    ns = list(range(n_range[0], n_range[1] + 1))
    grid = {
        (n, p): render_descriptor(table[(n, p)], args.ascii) for n in ns for p in ps
    }
    header = ["n \\ p"] + [str(p) for p in ps]
    widths = [len(header[0])] + [len(str(p)) for p in ps]
    for i, p in enumerate(ps):
        widths[i + 1] = max(widths[i + 1], max(len(grid[(n, p)]) for n in ns))
    widths[0] = max(widths[0], max(len(str(n)) for n in ns))
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for n in ns:
        row = [str(n).ljust(widths[0])]
        row += [grid[(n, p)].ljust(widths[i + 1]) for i, p in enumerate(ps)]
        lines.append("  ".join(row).rstrip())
    _emit(lines, out)
    return 0


# -- checks ----------------------------------------------------------------------------


def _ring_of(model: Model):
    if model.ring is None:
        raise ParseError(f"{model.name} carries no ring presentation")
    return model.ring


def _check_mv(args):
    x, u, v, w = (_load_space(path) for path in (args.space, args.u, args.v, args.w))
    return mv_consistency(x, u, v, w, load_theory_argument(args.theory), args.p), None, None


def _check_a1(args):
    model = _load_space(args.space)
    if not isinstance(model, QuasiProjModel):
        raise ParseError("check a1 needs a quasiprojective space")
    return a1_invariance_check(model, load_theory_argument(args.theory), args.n, args.p)


def _check_grothendieck(args):
    model = _load_space(args.space)
    chern = [parse_ring_element(_ring_of(model), c) for c in args.chern.split(";")] if args.chern else None
    return grothendieck_check(model, args.r, chern), None, None


def _check_transfer(args):
    model = _load_space(args.space)
    divisor_class = parse_ring_element(_ring_of(model), args.divisor_class)
    ok, class_rank, group_rank = transfer_normalization_check(model, divisor_class)
    return ok, None, None, {"class_rank": class_rank, "group_rank": group_rank}


# kind -> (required flags, runner returning (ok, lhs, rhs[, extra])).
CHECKS = {
    "splitting": (("space",), lambda a: rational_splitting_check(_load_space(a.space), a.n, a.p)),
    "mv": (("space", "u", "v", "w", "theory"), _check_mv),
    "a1": (("space", "theory"), _check_a1),
    "pbf": (
        ("space", "theory"),
        lambda a: pbf_check(_load_space(a.space), a.r, a.n, a.p, load_theory_argument(a.theory)),
    ),
    "grothendieck": (("space",), _check_grothendieck),
    "transfer": (("space", "divisor_class"), _check_transfer),
}


def _cmd_check(args, out) -> int:
    ok, lhs, rhs, *rest = CHECKS[args.kind][1](args)
    extra = rest[0] if rest else {}
    sides = [(side, d) for side, d in (("lhs", lhs), ("rhs", rhs)) if d is not None]
    if args.format == "json":
        payload = {"command": "check", "kind": args.kind, "ok": ok, **extra}
        payload.update((side, descriptor_to_json(d)) for side, d in sides)
        _emit_json(payload, out)
    else:
        lines = [("OK" if ok else "FAIL") + f" check {args.kind}"]
        lines += [f"{side}: {render_descriptor(d, args.ascii)}" for side, d in sides]
        if extra:
            lines.append(f"class rank: {extra['class_rank']}  group rank: {extra['group_rank']}")
        _emit(lines, out)
    return 0


# -- abel-jacobi -----------------------------------------------------------------------


def _parse_complex(text: str):
    try:
        return mpc(mp.mpmathify(text.strip()))
    except (ValueError, TypeError, AttributeError):  # mpmath: AttributeError on "2j+"
        raise ParseError(f"cannot parse complex number {text!r}")


def _parse_divisor(text: str) -> Divisor:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"divisor is not valid JSON: {exc}")
    if not isinstance(raw, list):
        raise ParseError("divisor must be a JSON list of [point, multiplicity]")
    entries = []
    for item in raw:
        if not (isinstance(item, list) and len(item) == 2):
            raise ParseError(f"divisor entry {item!r} must be [point, multiplicity]")
        pt_raw, mult = item
        if pt_raw == "inf" or pt_raw is None:
            pt = None
        elif isinstance(pt_raw, list) and len(pt_raw) == 2:
            pt = (str(pt_raw[0]), str(pt_raw[1]))
        else:
            raise ParseError(f"divisor point {pt_raw!r} must be [x, y] or \"inf\"")
        try:
            entries.append((pt, int(mult)))
        except (TypeError, ValueError):
            raise ParseError(f"divisor multiplicity {mult!r} is not an integer")
    return Divisor.of(entries)


def _fmt_complex(value, digits: int) -> dict:
    return {"re": mp.nstr(mp.re(value), digits), "im": mp.nstr(mp.im(value), digits)}


def _cmd_aj(args, out) -> int:
    raw = os.environ.get("HFCALC_AJ_PRECISION", "40")
    try:
        digits = int(raw)
    except ValueError:
        raise ParseError(f"HFCALC_AJ_PRECISION={raw!r} is not an integer number of digits")
    with mp.workdps(digits + 10):
        g2 = _parse_complex(args.g2)
        g3 = _parse_complex(args.g3)
    curve = EllipticCurve(g2, g3, digits)
    divisor = _parse_divisor(args.divisor)
    with mp.workdps(curve._workdps):
        divisor = Divisor.of(
            [
                (None if pt is None else (_parse_complex(pt[0]), _parse_complex(pt[1])), m)
                for pt, m in divisor.entries
            ]
        )
    z = curve.aj(divisor)
    a, b = curve.frac_coords(z)
    if args.format == "json":
        _emit_json(
            {
                "command": "aj",
                "g2": _fmt_complex(curve.g2, digits),
                "g3": _fmt_complex(curve.g3, digits),
                "digits": digits,
                "periods": {
                    "w1": _fmt_complex(curve.w1, digits),
                    "w2": _fmt_complex(curve.w2, digits),
                },
                "z": _fmt_complex(z, digits),
                "coords": [mp.nstr(a, digits), mp.nstr(b, digits)],
            },
            out,
        )
    else:
        _emit(
            [
                f"curve: g2 = {mp.nstr(curve.g2, digits)}, g3 = {mp.nstr(curve.g3, digits)}",
                f"working precision: {digits} digits",
                f"w1 = {mp.nstr(curve.w1, digits)}",
                f"w2 = {mp.nstr(curve.w2, digits)}",
                f"z  = {mp.nstr(z, digits)}",
                f"coords: a = {mp.nstr(a, digits)}, b = {mp.nstr(b, digits)}  (z = a*w1 + b*w2)",
            ],
            out,
        )
    return 0


# -- misc ----------------------------------------------------------------------------


def _cmd_emit_space(args, out) -> int:
    model = _load_space(args.space)
    _emit_json(emit_space(model), out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hfcalc",
        description="Hodge filtered cohomology calculator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=["table", "json"], default="table")
        p.add_argument("--ascii", action="store_true", help="ASCII symbols in table output")

    p = sub.add_parser("compute", help="one Hodge filtered group")
    p.add_argument("--space", required=True)
    p.add_argument("--theory", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--variant", choices=["analytic", "log"])
    add_format(p)
    p.set_defaults(fn=_cmd_compute)

    p = sub.add_parser("point-table", help="grid of groups of the point")
    p.add_argument("--theory", required=True)
    p.add_argument("--n-range", required=True)
    p.add_argument("--p-range", required=True)
    add_format(p)
    p.set_defaults(fn=_cmd_point_table)

    p = sub.add_parser("check", help="consistency checkers")
    p.add_argument("kind", choices=list(CHECKS))
    p.add_argument("--space")
    p.add_argument("--u")
    p.add_argument("--v")
    p.add_argument("--w")
    p.add_argument("--theory")
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--p", type=int, default=0)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--chern", help="semicolon-separated ring elements c_1; ...; c_r")
    p.add_argument("--divisor-class", help="ring element for check transfer")
    add_format(p)
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("aj", help="Abel-Jacobi value of a degree-zero divisor")
    p.add_argument("--g2", required=True)
    p.add_argument("--g3", required=True)
    p.add_argument(
        "--divisor",
        required=True,
        help='JSON list of [point, mult] with point = [x, y] or "inf"',
    )
    add_format(p)
    p.set_defaults(fn=_cmd_aj)

    p = sub.add_parser("emit-space", help="round-trip a space file to canonical JSON")
    p.add_argument("--space", required=True)
    p.set_defaults(fn=_cmd_emit_space)
    return parser


def _glue_range_flags(argv: list[str]) -> list[str]:
    # argparse mistakes "-4..4" for an option; fold range values into the flag.
    glued = []
    i = 0
    while i < len(argv):
        if argv[i] in ("--n-range", "--p-range") and i + 1 < len(argv):
            glued.append(argv[i] + "=" + argv[i + 1])
            i += 2
        else:
            glued.append(argv[i])
            i += 1
    return glued


def run(argv: list[str], out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(_glue_range_flags(argv))
    if args.command == "check":
        missing = [
            "--" + name.replace("_", "-")
            for name in CHECKS[args.kind][0]
            if getattr(args, name) in (None, "")
        ]
        if missing:
            parser.error(f"check {args.kind} requires {', '.join(missing)}")
    try:
        return args.fn(args, out)
    except CalcError as exc:
        print(str(exc), file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
