"""model_build: each op builds one model from a document and answers one HZ cell.

Documents are seeded constructor trees (P^d up to d = 400, curves,
products, projective bundles over Kahler and quasi-projective bases,
``as_quasiproj``, ``quasi_product`` up to complex dimension 16) or explicit
kahler / quasiprojective tables.  Parameters are distinct from op to op, so
construction and validation do the work and nothing can be reused.

Checks: Betti ranks against the Poincare polynomial of the tree, and the
cell against the projective bundle formula (cellular spaces as sums of
point cells, other bundles over their base), or analytic = log for curves.
"""

from __future__ import annotations

import json
import random

from harness import Kronecker, Op, Tracer, schedule
from oracles import (
    agree,
    as_tuple,
    cell_counts,
    cellular_cell,
    cellular_kahler_doc,
    cellular_quasi_doc,
    shifted,
    tree_betti,
)

from hfcalc import io, spaces
from hfcalc.coefficients import builtin_theory
from hfcalc.engine import hfc_group

TAIL_PCT = 90.0

HZ = builtin_theory("HZ")

# Shares are assumed, not measured: every kind appears once a round.
KINDS = (
    "pd_large",
    "pd_small",
    "curve",
    "product_pp",
    "product_pc",
    "bundle_kahler",
    "bundle_quasi",
    "as_quasiproj_pd",
    "as_quasiproj_cc",
    "quasi_product",
    "kahler_tables_pd",
    "kahler_tables_pp",
    "quasi_tables",
)
WEIGHTS = dict.fromkeys(KINDS, 1)
POOL = 2 * len(WEIGHTS)

IO_HEADS = {"point", "gm", "projective_space", "curve", "affine_space", "product", "projective_bundle"}


def _build(tr, expr):
    """Evaluate a tree: subtrees the document format knows go through
    ``io.parse_space``; ``as_quasiproj`` and ``quasi_product`` call spaces."""
    head = expr[0]
    if head == "as_quasiproj":
        inner = _build(tr, expr[1])
        with tr.span("spaces.as_quasiproj"):
            return spaces.as_quasiproj(inner)
    if head == "quasi_product":
        x, y = _build(tr, expr[1]), _build(tr, expr[2])
        with tr.span("spaces.quasi_product"):
            return spaces.quasi_product(x, y)
    with tr.span("io.parse_space"):
        return io.parse_space({"kind": "construct", "expr": expr})


class Workload:
    def __init__(self, seed: int, tmpdir):
        self.rng = random.Random(seed)
        self.seq = {kind: Kronecker() for kind in WEIGHTS}
        # Warm-up: one small op of every kind, untimed.
        for kind in WEIGHTS:
            op = self._make(kind, Kronecker(), small=True)
            verdict = op.check(op.run(Tracer()), None)
            if verdict is not None:
                raise RuntimeError(f"warm-up op failed its check: {verdict}")

    def ops(self):
        for kind in schedule(self.rng, WEIGHTS):
            yield self._make(kind, self.seq[kind])

    # -- op generation ------------------------------------------------------------

    def _make(self, kind, seq, small=False):
        rng = self.rng
        text = None  # explicit documents are parsed from text
        if kind == "pd_large":
            d = 5 if small else seq.int(300, 400)
            expr, ref = ["projective_space", d], ("cellular", [d], "full")
        elif kind == "pd_small":
            d = seq.int(20, 160)
            expr, ref = ["projective_space", d], ("cellular", [d], "full")
        elif kind == "curve":
            g = seq.int(0, 80)
            expr, ref = ["curve", g], ("anlog", ["curve", g], "log")
        elif kind == "product_pp":
            a, b = seq.int(4, 40), seq.second_int(1, 20)
            expr, ref = ["product", ["projective_space", a], ["projective_space", b]], ("cellular", [a, b], "full")
        elif kind == "product_pc":
            a, g = seq.int(4, 40), seq.second_int(1, 10)
            expr, ref = ["product", ["projective_space", a], ["curve", g]], ("bundle", ["curve", g], a + 1, "full")
        elif kind == "bundle_kahler":
            r, g1, g2 = seq.int(2, 24), seq.second_int(1, 6), rng.randint(1, 6)
            base = ["product", ["curve", g1], ["curve", g2]]
            expr, ref = ["projective_bundle", base, r], ("bundle", base, r, "full")
        elif kind == "bundle_quasi":
            base = ["gm"] if seq.i % 2 else ["affine_space", rng.randint(1, 5)]
            r = seq.int(2, 30)
            expr, ref = ["projective_bundle", base, r], ("bundle", base, r, "noctd")
        elif kind == "as_quasiproj_pd":
            a = 4 if small else seq.int(10, 60)
            expr, ref = ["as_quasiproj", ["projective_space", a]], ("cellular", [a], "noctd")
        elif kind == "as_quasiproj_cc":
            g1, g2 = seq.int(1, 6), seq.second_int(1, 6)
            inner = ["product", ["curve", g1], ["curve", g2]]
            expr, ref = ["as_quasiproj", inner], ("anlog", inner, "analytic")
        elif kind == "quasi_product":
            s = 4 if small else seq.int(8, 16)
            a, b = s // 2, s - s // 2
            expr = [
                "quasi_product",
                ["as_quasiproj", ["projective_space", a]],
                ["as_quasiproj", ["projective_space", b]],
            ]
            ref = ("cellular", [a, b], "noctd")
        elif kind == "kahler_tables_pd":
            dims = [3] if small else [seq.int(100, 200)]
            text = json.dumps(cellular_kahler_doc("tables", dims))
            expr, ref = None, ("cellular", dims, "full")
        elif kind == "kahler_tables_pp":
            dims = [seq.int(20, 80), seq.second_int(1, 3)]
            text = json.dumps(cellular_kahler_doc("tables", dims))
            expr, ref = None, ("cellular", dims, "full")
        elif kind == "quasi_tables":
            dims = [3] if small else [seq.int(10, 40), seq.second_int(0, 2)]
            text = json.dumps(cellular_quasi_doc("tables", dims))
            expr, ref = None, ("cellular", dims, "noctd")
        else:
            raise ValueError(kind)
        if text is None:
            text = json.dumps({"kind": "construct", "expr": expr})
        return self._op(kind, text, expr, ref)

    def _op(self, kind, text, expr, ref):
        rng = self.rng
        if expr is None:
            betti = {2 * c: k for c, k in cell_counts(*ref[1]).items()}
        else:
            betti = tree_betti(expr)
        top = max(betti)
        n = rng.randint(-1, top + 1)
        p = rng.randint(-1, top // 2 + 1)
        io_only = expr is None or _io_only(expr)

        def run(tr):
            if io_only:
                with tr.span("io.parse_space"):
                    model = io.parse_space_text(text)
            else:
                model = _build(tr, json.loads(text)["expr"])
            with tr.span("engine.hfc_group"):
                return model, hfc_group(model, HZ, n, p)

        def check(result, error):
            if error is not None:
                return ("fail", f"{kind}: {error!r}")
            model, desc = result
            got_betti = {m: model.betti_rank(m) for m in model.support_degrees()}
            if got_betti != {m: b for m, b in betti.items() if b}:
                return ("fail", f"{kind}: Betti ranks {got_betti} != Poincare polynomial")
            want, mode = _reference(ref, n, p)
            if not agree(as_tuple(desc), want, mode):
                return ("fail", f"{kind} {expr} HZ({n},{p}): {as_tuple(desc)} != {want}")
            return None

        def key(result):
            model, desc = result
            return {m: model.betti_rank(m) for m in model.support_degrees()}, as_tuple(desc)

        return Op(kind, run, check, key)


def _io_only(expr) -> bool:
    return expr[0] in IO_HEADS and all(_io_only(a) for a in expr[1:] if isinstance(a, list))


def _reference(ref, n, p):
    """Expected HZ cell and the comparison mode, from the paper's laws."""
    if ref[0] == "cellular":
        _, dims, mode = ref
        return cellular_cell("HZ", cell_counts(*dims), n, p), mode
    if ref[0] == "bundle":
        _, base_expr, r, mode = ref
        base = io.parse_space({"kind": "construct", "expr": base_expr})
        variant = "analytic" if mode == "full" else "log"
        cell = lambda nn, pp: as_tuple(hfc_group(base, HZ, nn, pp, variant))
        return shifted(cell, cell_counts(r - 1), n, p), mode
    # analytic = log: in ranks, the cell of a Kahler model equals the log
    # cell of its quasi-projective re-presentation; the reference takes the
    # variant the op did not.
    _, kahler_expr, variant = ref
    model = io.parse_space({"kind": "construct", "expr": kahler_expr})
    if variant == "log":
        model = spaces.as_quasiproj(model)
    return as_tuple(hfc_group(model, HZ, n, p, variant)), "ranks"
