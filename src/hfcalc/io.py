"""Textual formats: space and theory documents in, descriptors out.

Spaces and theories are single JSON documents (diff-able fixtures for
golden tests).  A space document is one of three kinds:

* ``{"kind": "construct", "expr": ["projective_space", 2]}`` -- a
  constructor expression tree, evaluated bottom-up;
* ``{"kind": "kahler", ...}`` -- explicit tables: Betti groups with
  torsion, Hodge numbers, Hodge-class ranks, optional ring presentation;
* ``{"kind": "quasiprojective", ...}`` -- explicit Betti ranks plus
  filtration and lattice tables.

Every field of both model kinds round-trips through emit/parse, and each
model's constructor checks it on loading.  A descriptor is only written,
as JSON or as text; nothing reads one back.
"""

from __future__ import annotations

import json
import math
import re
from typing import Any, NoReturn

from hfcalc.abelian import FgAbelianGroup
from hfcalc.coefficients import CoefficientTheory, builtin_theory, custom_theory
from hfcalc.engine import GroupDescriptor
from hfcalc.errors import ParseError, _int_arg, _quoted, _shown
from hfcalc.rings import RingModel
from hfcalc.spaces import (
    MAX_QUASI_DEGREE,
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
    "render_descriptor",
    "parse_ring_element",
    "check_bundle",
]


# -- size limits -------------------------------------------------------------------
#
# A document is checked against these before the model or theory it
# describes is built, so a hostile size ends in a ParseError (exit 1), not
# in minutes of CPU time.  Dimension does not bound the work: a product
# convolves its factors' tables, entry by entry, so 128 nested products of
# curves (dimension 128) convolve 2.9 million entry pairs (2.4 s).
# MAX_TABLE_TERMS bounds those counts summed over the document's products
# and bundles.  It also counts each ring's basis monomials, the most terms
# a ring element in normal form (``RingModel.reduce``) can hold; a model's
# check counts them by degree from the rule powers without listing them
# (P(P^300 x P^300, 300), 27 million monomials, builds in 0.7 s).  The top
# Betti degree of a quasi-projective model is bounded by the library's own
# limit, ``spaces.MAX_QUASI_DEGREE``, checked here before any model is built.

MAX_DIM = 1000  # complex dimension of a Kahler model, of P^n and of A^n
MAX_THEORY_DEGREE = 1000  # |j| of a theory document's rank table
MAX_TABLE_TERMS = 10 ** 6  # entry pairs and ring monomials a document's models cost


def _within(what: str, size: int, limit: int) -> None:
    if size > limit:
        raise ParseError(f"{what} {size} exceeds the limit of {limit}")


def check_bundle(base: Model, r: int, terms: int = 0) -> int:
    """``terms`` plus the table terms of a rank-r bundle over ``base``; a ParseError past a
    limit.  P(V) has dimension dim X + r - 1 and top degree that of X plus 2(r - 1)."""
    if isinstance(base, KahlerModel):
        _within("projective_bundle dimension", base.dim + r - 1, MAX_DIM)
    else:
        _within("projective_bundle top degree", base.max_degree + 2 * (r - 1), MAX_QUASI_DEGREE)
    terms += r * (sum(map(len, _tables(base))) + _ring_basis(base.ring))
    _within("table terms", terms, MAX_TABLE_TERMS)
    return terms


def _ring_basis(ring: RingModel | None) -> int:
    """The basis monomials of a ring: the most terms one of its elements in
    normal form can hold."""
    return math.prod(power for power, _tail in ring.rules) if ring is not None else 0


def _tables(model: Model) -> tuple:
    """A model's tables, as a product or bundle combines them: a quasi-projective
    model's graded pieces, two tables per degree."""
    if isinstance(model, KahlerModel):
        return model.betti, model.hodge, model.hodge_class_rank
    return model.betti, *(gr for n in model.betti for gr in model.graded_pieces(n)), model.hodge_class_rank


# -- helpers ---------------------------------------------------------------------


def _items(raw: Any, what: str):
    if not isinstance(raw, dict):
        raise ParseError(f"{what}: expected an object, got {type(raw).__name__}")
    return raw.items()


def _int_table(raw: Any, what: str) -> dict:
    return {_int_arg(k, what, k): _int_arg(v, what, k) for k, v in _items(raw, what)}


_PAIR_KEY = re.compile(r"(-?[0-9]+),(-?[0-9]+)")  # two of _int_arg's numerals


def _pair_table(raw: Any, what: str) -> dict:
    out = {}
    for k, v in _items(raw, what):
        value = _int_arg(v, what, k)
        m = _PAIR_KEY.fullmatch(k) if isinstance(k, str) else None
        try:
            out[int(m[1]), int(m[2])] = value
        except (TypeError, ValueError):  # no match, or a numeral past the interpreter's length limit
            _refuse_pair_key(k, what)
    return out


def _refuse_pair_key(k: Any, what: str) -> NoReturn:
    """Word the refusal of a key that is not two integers joined by a comma."""
    parts = str(k).split(",")
    if len(parts) == 2:
        for part in parts:
            _int_arg(part, what, k)  # refuses the first part that is not an integer
    raise ParseError(f"{what}: key {_quoted(k)} is not of the form 'a,b'")


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
        ring = RingModel(generators=gens, rules=rules)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"ring presentation: {exc}")
    _within("ring basis", _ring_basis(ring), MAX_TABLE_TERMS)
    return ring


def parse_ring_element(ring: RingModel, text: str) -> dict:
    """Parse a sum of integer-coefficient monomials like ``2*x^2*y - 3*x``: a
    sign starts each term (the first may go without), ``*`` joins factors, and a
    factor is a nonnegative integer or a generator with an optional integer
    power.  Spaces are ignored; an empty text is 0."""
    index = {name: i for i, (name, _deg) in enumerate(ring.generators)}
    body = text.replace(" ", "")
    parts = re.split(r"([+-])", body if body[:1] in "+-" else "+" + body)[1:]  # sign, term, sign, term, ...
    poly: dict = {}
    for sign, term in zip(parts[::2], parts[1::2]):
        coeff, expo = -1 if sign == "-" else 1, [0] * len(index)
        for factor in term.split("*"):
            name, caret, power = factor.partition("^")
            if factor.isdigit():
                coeff *= _int_arg(factor, "ring element coefficient")
            elif name in index:
                expo[index[name]] += _int_arg(power, "ring element exponent") if caret else 1
            elif name:
                raise ParseError(f"unknown generator {_quoted(name)} in ring element {_quoted(text)}")
            else:
                raise ParseError(f"ring element {_quoted(text)}: {_quoted(factor)} is not an integer or a generator")
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


def _eval_expr(expr: Any) -> tuple[Model, int]:
    """The model of a constructor expression, and the table terms its
    products and bundles cost: for a product the sum over its factors'
    tables of len(x table) * len(y table), plus the product of their ring
    bases; for a rank-r bundle r times the base's table entries and ring
    basis."""
    if not isinstance(expr, list) or not expr or not isinstance(expr[0], str):
        raise ParseError(f"constructor expression must be a list starting with a name: {_quoted(expr)}")
    head, *args = expr
    if head in _LEAVES:
        arity, fn = _LEAVES[head]
        if len(args) != arity:
            raise ParseError(f"{head} takes {arity} argument(s), got {len(args)}")
        args = [_int_arg(a, head) for a in args]
        if head in ("projective_space", "affine_space"):  # a curve's genus sets no table's size
            _within(f"{head} dimension", args[0], MAX_DIM)
        return fn(*args), 0
    if head == "product":
        if len(args) != 2:
            raise ParseError("product takes two sub-expressions")
        (x, terms_x), (y, terms_y) = _eval_expr(args[0]), _eval_expr(args[1])
        if not (isinstance(x, KahlerModel) and isinstance(y, KahlerModel)):
            raise ParseError("product requires two kahler models")
        _within("product dimension", x.dim + y.dim, MAX_DIM)
        pairs = sum(len(a) * len(b) for a, b in zip(_tables(x), _tables(y)))
        terms = terms_x + terms_y + pairs + _ring_basis(x.ring) * _ring_basis(y.ring)
        _within("table terms", terms, MAX_TABLE_TERMS)
        return product(x, y), terms
    if head == "projective_bundle":
        if len(args) != 2:
            raise ParseError("projective_bundle takes a base expression and a rank")
        base, terms = _eval_expr(args[0])
        r = _int_arg(args[1], "projective_bundle rank")
        terms = check_bundle(base, r, terms)
        return projective_bundle(base, r), terms
    raise ParseError(f"unknown constructor {_quoted(head)}")


# -- space documents ---------------------------------------------------------------


def parse_space(doc: Any) -> Model:
    """Validated model from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ParseError("space document must be a JSON object")
    kind = doc.get("kind")
    if kind == "construct":
        model, _terms = _eval_expr(doc.get("expr"))
        name = doc.get("name")
        if name:
            model = model.replace(name=str(name))
        return model
    if kind == "kahler":
        if "complex_dim" not in doc:
            raise ParseError("kahler document: complex_dim is missing")
        dim = _int_arg(doc["complex_dim"], "complex_dim")
        _within("complex_dim", dim, MAX_DIM)
        betti = {}
        for k, entry in _items(doc.get("betti", {}), "betti"):
            if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[1], list)):
                raise ParseError(f"betti[{_shown(str(k))}]: expected [free_rank, [torsion...]]")
            try:
                betti[_int_arg(k, "betti", k)] = FgAbelianGroup.of(
                    _int_arg(entry[0], "betti", k), [_int_arg(t, "betti", k) for t in entry[1]]
                )
            except ValueError as exc:
                raise ParseError(f"betti[{_shown(str(k))}]: {exc}")
        return KahlerModel(
            name=str(doc.get("name", "space")),
            dim=dim,
            betti=betti,
            hodge=_pair_table(doc.get("hodge", {}), "hodge"),
            hodge_class_rank=_int_table(doc.get("hodge_class_rank", {}), "hodge_class_rank"),
            ring=_ring_from_json(doc["ring"]) if doc.get("ring") else None,
        )
    if kind == "quasiprojective":
        betti = _int_table(doc.get("betti_rank", {}), "betti_rank")
        filt = _pair_table(doc.get("filt_dim", {}), "filt_dim")
        lattice = _pair_table(doc.get("lattice_in_f", {}), "lattice_in_f")
        hcr = _int_table(doc.get("hodge_class_rank", {}), "hodge_class_rank")
        degrees = [*betti, *(n for _p, n in filt), *(n for _p, n in lattice), *(2 * q for q in hcr)]
        _within("quasi-projective degree", max(degrees, default=0), MAX_QUASI_DEGREE)
        return QuasiProjModel(
            name=str(doc.get("name", "space")),
            betti=betti,
            filt=filt,
            lattice=lattice,
            hodge_class_rank=hcr,
            ring=_ring_from_json(doc["ring"]) if doc.get("ring") else None,
        )
    raise ParseError(f"unknown space kind {_quoted(kind)} (expected kahler, quasiprojective or construct)")


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
    ranks = _int_table(doc.get("ranks", {}), "ranks")
    _within("theory degree", max((abs(j) for j in ranks), default=0), MAX_THEORY_DEGREE)
    return custom_theory(
        ranks,
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
