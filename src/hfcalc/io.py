"""Textual formats: space documents, theory documents, descriptor JSON.

Spaces and theories are single JSON documents (diff-able fixtures for
golden tests).  A space document is one of three kinds:

* ``{"kind": "construct", "expr": ["projective_space", 2]}`` -- a
  constructor expression tree, evaluated bottom-up;
* ``{"kind": "kahler", ...}`` -- explicit tables: Betti groups with
  torsion, Hodge numbers, Hodge-class ranks, optional ring presentation;
* ``{"kind": "quasiprojective", ...}`` -- explicit Betti ranks plus
  filtration and lattice tables.

Every field of both model kinds round-trips through emit/parse, and each
model's constructor checks it on loading.
"""

from __future__ import annotations

import json
import operator
from typing import Any

from hfcalc.abelian import FgAbelianGroup
from hfcalc.coefficients import CoefficientTheory, builtin_theory, custom_theory
from hfcalc.engine import GroupDescriptor
from hfcalc.errors import ParseError
from hfcalc.rings import RingModel
from hfcalc.spaces import (
    KahlerModel,
    Model,
    QuasiProjModel,
    affine_space,
    curve,
    gm,
    point,
    product,
    projective_bundle,
    projective_space,
)

__all__ = [
    "parse_space",
    "parse_space_text",
    "emit_space",
    "parse_theory",
    "load_theory_argument",
    "descriptor_to_json",
    "descriptor_from_json",
    "render_descriptor",
    "parse_ring_element",
]


# -- helpers ---------------------------------------------------------------------


def _int_arg(value: Any, what: str, key: Any = None) -> int:
    """The one reader for an integer from outside the program: a JSON
    integer, an integral number or a numeral string.  Anything else
    (``"abc"``, ``null``, ``1.5``, ``true``) is a ParseError naming
    ``what`` (and ``key``), never a silent truncation."""
    if type(value) is int:
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, float):
        if value.is_integer():
            return int(value)
    elif not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    where = what if key is None else f"{what}[{key}]"
    raise ParseError(f"{where}: {value!r} is not an integer")


def _items(raw: Any, what: str):
    if not isinstance(raw, dict):
        raise ParseError(f"{what}: expected an object, got {type(raw).__name__}")
    return raw.items()


def _int_table(raw: Any, what: str) -> dict:
    return {_int_arg(k, what, k): _int_arg(v, what, k) for k, v in _items(raw, what)}


def _pair_table(raw: Any, what: str) -> dict:
    out = {}
    for k, v in _items(raw, what):
        parts = str(k).split(",")
        if len(parts) != 2:
            raise ParseError(f"{what}: key {k!r} is not of the form 'a,b'")
        out[(_int_arg(parts[0], what, k), _int_arg(parts[1], what, k))] = _int_arg(v, what, k)
    return out


# -- ring presentations ------------------------------------------------------------


def _ring_to_json(ring: RingModel) -> dict:
    return {
        "generators": [[name, deg] for name, deg in ring.generators],
        "rules": [
            [power, sorted([list(m), c] for m, c in tail.items())]
            for power, tail in ring.rules
        ],
    }


def _ring_from_json(raw: Any) -> RingModel:
    try:
        what = "ring presentation"
        gens = tuple((str(n), _int_arg(d, what)) for n, d in raw["generators"])
        rules = tuple(
            (_int_arg(power, what), {tuple(_int_arg(e, what) for e in m): _int_arg(c, what) for m, c in tail})
            for power, tail in raw["rules"]
        )
        return RingModel(generators=gens, rules=rules)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"ring presentation: {exc}")


def parse_ring_element(ring: RingModel, text: str) -> dict:
    """Parse a sum of integer-coefficient monomials like ``2*x^2*y - 3*x``."""
    text = text.replace("-", "+-").replace(" ", "")
    poly: dict = {}
    for term in text.split("+"):
        if not term:
            continue
        coeff = 1
        expo = [0] * len(ring.generators)
        for factor in term.split("*"):
            if not factor:
                continue
            if factor.lstrip("-").isdigit():
                coeff *= _int_arg(factor, "ring element coefficient")
                continue
            name, _, power = factor.partition("^")
            neg = name.startswith("-")
            if neg:
                name = name[1:]
                coeff = -coeff
            for i, (gname, _deg) in enumerate(ring.generators):
                if gname == name:
                    expo[i] += _int_arg(power, "ring element exponent") if power else 1
                    break
            else:
                raise ParseError(f"unknown generator {name!r} in ring element {text!r}")
        key = tuple(expo)
        poly[key] = poly.get(key, 0) + coeff
    return ring.reduce(poly)


# -- constructor expression trees ------------------------------------------------------


_LEAVES = {
    "point": (0, point),
    "gm": (0, gm),
    "projective_space": (1, projective_space),
    "curve": (1, curve),
    "affine_space": (1, affine_space),
}


def _eval_expr(expr: Any) -> Model:
    if not isinstance(expr, list) or not expr or not isinstance(expr[0], str):
        raise ParseError(f"constructor expression must be a list starting with a name: {expr!r}")
    head, *args = expr
    if head in _LEAVES:
        arity, fn = _LEAVES[head]
        if len(args) != arity:
            raise ParseError(f"{head} takes {arity} argument(s), got {len(args)}")
        return fn(*(_int_arg(a, head) for a in args))
    if head == "product":
        if len(args) != 2:
            raise ParseError("product takes two sub-expressions")
        x, y = _eval_expr(args[0]), _eval_expr(args[1])
        if not (isinstance(x, KahlerModel) and isinstance(y, KahlerModel)):
            raise ParseError("product requires two kahler models")
        return product(x, y)
    if head == "projective_bundle":
        if len(args) != 2:
            raise ParseError("projective_bundle takes a base expression and a rank")
        base = _eval_expr(args[0])
        return projective_bundle(base, _int_arg(args[1], "projective_bundle rank"))
    raise ParseError(f"unknown constructor {head!r}")


# -- space documents ---------------------------------------------------------------


def parse_space(doc: Any) -> Model:
    """Validated model from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ParseError("space document must be a JSON object")
    kind = doc.get("kind")
    if kind == "construct":
        model = _eval_expr(doc.get("expr"))
        name = doc.get("name")
        if name:
            model = model.replace(name=str(name))
        return model
    if kind == "kahler":
        betti = {}
        for k, entry in _items(doc.get("betti", {}), "betti"):
            if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[1], list)):
                raise ParseError(f"betti[{k}]: expected [free_rank, [torsion...]]")
            try:
                betti[_int_arg(k, "betti", k)] = FgAbelianGroup.of(
                    _int_arg(entry[0], "betti", k), [_int_arg(t, "betti", k) for t in entry[1]]
                )
            except ValueError as exc:
                raise ParseError(f"betti[{k}]: {exc}")
        return KahlerModel(
            name=str(doc.get("name", "space")),
            dim=_int_arg(doc.get("complex_dim", -1), "complex_dim"),
            betti=betti,
            hodge=_pair_table(doc.get("hodge", {}), "hodge"),
            hodge_class_rank=_int_table(doc.get("hodge_class_rank", {}), "hodge_class_rank"),
            ring=_ring_from_json(doc["ring"]) if doc.get("ring") else None,
        )
    if kind == "quasiprojective":
        return QuasiProjModel(
            name=str(doc.get("name", "space")),
            betti=_int_table(doc.get("betti_rank", {}), "betti_rank"),
            filt=_pair_table(doc.get("filt_dim", {}), "filt_dim"),
            lattice=_pair_table(doc.get("lattice_in_f", {}), "lattice_in_f"),
            hodge_class_rank=_int_table(doc.get("hodge_class_rank", {}), "hodge_class_rank"),
            ring=_ring_from_json(doc["ring"]) if doc.get("ring") else None,
        )
    raise ParseError(f"unknown space kind {kind!r} (expected kahler, quasiprojective or construct)")


def parse_space_text(text: str) -> Model:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"space document is not valid JSON: {exc}")
    return parse_space(doc)


def emit_space(model: Model) -> dict:
    """Canonical JSON document; parse(emit(m)) reproduces every field."""
    if isinstance(model, KahlerModel):
        return {
            "kind": "kahler",
            "name": model.name,
            "complex_dim": model.dim,
            "betti": {
                str(n): [g.free_rank, list(g.torsion)] for n, g in sorted(model.betti.items())
            },
            "hodge": {f"{s},{t}": v for (s, t), v in sorted(model.hodge.items())},
            "hodge_class_rank": {str(q): v for q, v in sorted(model.hodge_class_rank.items())},
            "ring": _ring_to_json(model.ring) if model.ring is not None else None,
        }
    return {
        "kind": "quasiprojective",
        "name": model.name,
        "betti_rank": {str(n): v for n, v in sorted(model.betti.items())},
        "filt_dim": {f"{p},{n}": v for (p, n), v in sorted(model.filt.items())},
        "lattice_in_f": {f"{p},{n}": v for (p, n), v in sorted(model.lattice.items())},
        "hodge_class_rank": {str(q): v for q, v in sorted(model.hodge_class_rank.items())},
        "ring": _ring_to_json(model.ring) if model.ring is not None else None,
    }


# -- theories ---------------------------------------------------------------------


def parse_theory(doc: Any) -> CoefficientTheory:
    if not isinstance(doc, dict):
        raise ParseError("theory document must be a JSON object")
    return custom_theory(
        _int_table(doc.get("ranks", {}), "ranks"),
        ring_field=str(doc.get("field", "integral")),
        name=str(doc.get("name", "custom")),
    )


def load_theory_argument(arg: str) -> CoefficientTheory:
    """A --theory value: a builtin name, or a path to a theory document."""
    if arg in ("MU", "HZ", "HQ", "MUQ"):
        return builtin_theory(arg)
    try:
        with open(arg, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"theory {arg!r}: not a builtin name and not a readable file ({exc})")
    except json.JSONDecodeError as exc:
        raise ParseError(f"theory file {arg!r} is not valid JSON: {exc}")
    return parse_theory(doc)


# -- descriptors -------------------------------------------------------------------


def descriptor_to_json(d: GroupDescriptor) -> dict:
    return {
        "free_rank": d.free_rank,
        "torsion": list(d.torsion),
        "circle_rank": d.circle_rank,
        "real_rank": d.real_rank,
        "complex_torus_dim": d.complex_torus_dim,
        "exactness": d.exactness,
    }


def descriptor_from_json(raw: Any) -> GroupDescriptor:
    try:
        ctd = raw["complex_torus_dim"]
        return GroupDescriptor(
            free_rank=_int_arg(raw["free_rank"], "free_rank"),
            torsion=tuple(_int_arg(t, "torsion") for t in raw["torsion"]),
            circle_rank=_int_arg(raw["circle_rank"], "circle_rank"),
            real_rank=_int_arg(raw["real_rank"], "real_rank"),
            complex_torus_dim=None if ctd is None else _int_arg(ctd, "complex_torus_dim"),
            exactness=str(raw["exactness"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"descriptor object: {exc}")


def render_descriptor(d: GroupDescriptor, ascii_only: bool = False) -> str:
    """Human form, e.g. ``Z^2 + Z/2 + T^2 + R^1`` or the unicode variant."""
    if ascii_only:
        z, tor, circ, real, oplus = "Z", "Z/{}", "T^{}", "R^{}", " + "
    else:
        z, tor, circ, real, oplus = "ℤ", "ℤ/{}", "(ℝ/ℤ)^{}", "ℝ^{}", " ⊕ "
    parts = []
    if d.free_rank == 1:
        parts.append(z)
    elif d.free_rank > 1:
        parts.append(f"{z}^{d.free_rank}")
    parts.extend(tor.format(t) for t in d.torsion)
    if d.circle_rank:
        parts.append(circ.format(d.circle_rank))
    if d.real_rank:
        parts.append(real.format(d.real_rank))
    text = oplus.join(parts) if parts else "0"
    if d.complex_torus_dim is not None and d.complex_torus_dim > 0:
        text += f" [complex torus dim {d.complex_torus_dim}]"
    if d.exactness != "exact":
        text += " {rank-level}"
    return text
