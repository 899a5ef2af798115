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
from typing import TYPE_CHECKING

from mpmath import mp, mpc

from hfcalc.errors import CalcError, ParseError, _int_arg, _quoted

# Each subcommand imports what it runs: hfcalc.abeljacobi on the aj path
# only (_cmd_aj, _parse_divisor), and the model modules (engine, io, spaces
# and what they load) on every other path, so no process pays for loading,
# or without cached bytecode compiling, modules it does not use.
if TYPE_CHECKING:
    from hfcalc.abeljacobi import Divisor
    from hfcalc.spaces import Model

__all__ = ["main", "run"]


def _load_space(path: str) -> Model:
    from hfcalc.io import parse_space_text

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
        a, b = _int_arg(lo, "range"), _int_arg(hi, "range")
    except ParseError:
        raise ParseError(f"range {_quoted(text)} must have integer endpoints")
    if a > b:
        raise ParseError(f"range {_quoted(text)} is empty")
    return a, b


def _int_flag(text: str) -> int:
    """An integer flag, read by ``_int_arg``; argparse exits 2 on a bad one."""
    try:
        return _int_arg(text, "flag")
    except ParseError:
        raise argparse.ArgumentTypeError(f"{_quoted(text)} is not an integer")


def _emit(lines: list[str], out) -> None:
    for line in lines:
        out.write(line + "\n")


def _emit_json(obj, out) -> None:
    out.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


# -- compute ------------------------------------------------------------------------


def _cmd_compute(args, out) -> int:
    from hfcalc.engine import hfc_group, variant_for
    from hfcalc.io import descriptor_to_json, load_theory_argument, render_descriptor

    model = _load_space(args.space)
    theory = load_theory_argument(args.theory)
    variant = args.variant or variant_for(model)
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
    from hfcalc.engine import point_table
    from hfcalc.io import descriptor_to_json, load_theory_argument, render_descriptor

    theory = load_theory_argument(args.theory)
    n_range = _parse_range(args.n_range)
    p_range = _parse_range(args.p_range)
    table = point_table(theory, n_range, p_range)
    ns = range(n_range[0], n_range[1] + 1)
    ps = range(p_range[0], p_range[1] + 1)
    # point_table shares one descriptor per distinct value: format each once.
    fmt = descriptor_to_json if args.format == "json" else (lambda desc: render_descriptor(desc, args.ascii))
    distinct = {id(desc): desc for desc in table.values()}
    text = {key: fmt(desc) for key, desc in distinct.items()}
    if args.format == "json":
        cells = [{"n": n, "p": p, "descriptor": text[id(table[(n, p)])]} for n in ns for p in ps]
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
    grid = {(n, p): text[id(table[(n, p)])] for n in ns for p in ps}
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


def _check_splitting(args):
    from hfcalc.engine import rational_splitting_check

    return rational_splitting_check(_load_space(args.space), args.n, args.p)


def _check_mv(args):
    from hfcalc.engine import mv_consistency
    from hfcalc.io import load_theory_argument

    x, u, v, w = (_load_space(path) for path in (args.space, args.u, args.v, args.w))
    return mv_consistency(x, u, v, w, load_theory_argument(args.theory), args.p), None, None


def _check_a1(args):
    from hfcalc.engine import a1_invariance_check
    from hfcalc.io import load_theory_argument

    return a1_invariance_check(_load_space(args.space), load_theory_argument(args.theory), args.n, args.p)


def _check_pbf(args):
    from hfcalc.engine import pbf_check
    from hfcalc.io import check_bundle, load_theory_argument

    model = _load_space(args.space)
    check_bundle(model, args.r)
    return pbf_check(model, args.r, args.n, args.p, load_theory_argument(args.theory))


def _check_grothendieck(args):
    from hfcalc.engine import grothendieck_check
    from hfcalc.io import parse_ring_element
    from hfcalc.rings import ring_of

    model = _load_space(args.space)
    chern = [parse_ring_element(ring_of(model), c) for c in args.chern.split(";")] if args.chern else None
    return grothendieck_check(model, args.r, chern), None, None


def _check_transfer(args):
    from hfcalc.engine import transfer_normalization_check
    from hfcalc.io import parse_ring_element
    from hfcalc.rings import ring_of

    model = _load_space(args.space)
    divisor_class = parse_ring_element(ring_of(model), args.divisor_class)
    ok, class_rank, group_rank = transfer_normalization_check(model, divisor_class)
    return ok, None, None, {"class_rank": class_rank, "group_rank": group_rank}


# kind -> (required flags, runner returning (ok, lhs, rhs[, extra])).
CHECKS = {
    "splitting": (("space",), _check_splitting),
    "mv": (("space", "u", "v", "w", "theory"), _check_mv),
    "a1": (("space", "theory"), _check_a1),
    "pbf": (("space", "theory"), _check_pbf),
    "grothendieck": (("space",), _check_grothendieck),
    "transfer": (("space", "divisor_class"), _check_transfer),
}


def _cmd_check(args, out) -> int:
    from hfcalc.io import descriptor_to_json, render_descriptor

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
    """The divisor of ``--divisor``, every coordinate parsed at the current
    precision (the curve's working precision)."""
    from hfcalc.abeljacobi import Divisor

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
            pt = (_parse_complex(str(pt_raw[0])), _parse_complex(str(pt_raw[1])))
        else:
            raise ParseError(f"divisor point {pt_raw!r} must be [x, y] or \"inf\"")
        entries.append((pt, _int_arg(mult, "divisor multiplicity")))
    return Divisor(entries)


def _fmt_complex(value, digits: int) -> dict:
    return {"re": mp.nstr(mp.re(value), digits), "im": mp.nstr(mp.im(value), digits)}


def _cmd_aj(args, out) -> int:
    from hfcalc.abeljacobi import EllipticCurve

    digits = _int_arg(os.environ.get("HFCALC_AJ_PRECISION", "40"), "HFCALC_AJ_PRECISION")
    with mp.workdps(digits + 10):
        g2 = _parse_complex(args.g2)
        g3 = _parse_complex(args.g3)
    curve = EllipticCurve(g2, g3, digits)
    with mp.workdps(curve._workdps):
        divisor = _parse_divisor(args.divisor)
    z, a, b = curve._aj_coords(divisor)
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
    from hfcalc.io import emit_space

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
    p.add_argument("--n", type=_int_flag, required=True)
    p.add_argument("--p", type=_int_flag, required=True)
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
    p.add_argument("--n", type=_int_flag, default=0)
    p.add_argument("--p", type=_int_flag, default=0)
    p.add_argument("--r", type=_int_flag, default=1)
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
