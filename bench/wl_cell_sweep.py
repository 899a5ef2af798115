"""cell_sweep: a few large models built in set-up, then one query per op.

Models (seeded sizes): P^d with d near 150; a projective bundle over a
product of two curves; the quasi-projective product P^a x P^b; a
projective bundle over Gm x curve.  Each op is an ``hfc_group`` cell under
MU, MUQ, HZ or a custom theory, a point-table grid, or one of the six
checkers.  The same models are queried again and again, so this is where
per-model caches pay off.

Checks: cells against the projective bundle formula (P^d and P^a x P^b as
sums of closed-form point cells, the bundles over their bases), grids
against the closed-form point table, checkers against their law (the
verdict must be true; transfer's group rank against the closed form).
"""

from __future__ import annotations

import random

from harness import Kronecker, Op, schedule
from oracles import (
    agree,
    as_tuple,
    cell_counts,
    cellular_cell,
    mv_truncated_verdict,
    point_cell,
    rank_function,
    shifted,
)

from hfcalc import spaces
from hfcalc.coefficients import builtin_theory, custom_theory
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

TAIL_PCT = 95.0

CUSTOM_RANKS = {-1: 1, 0: 1, 1: 2, 2: 1}
THEORIES = {
    "MU": builtin_theory("MU"),
    "MUQ": builtin_theory("MUQ"),
    "HZ": builtin_theory("HZ"),
    "HQ": builtin_theory("HQ"),
    "custom": custom_theory(CUSTOM_RANKS, name="custom"),
}
NAMES = sorted(THEORIES)


def _spec(theory_name):
    """The oracle's form of a theory: a builtin name or the custom rank table."""
    return CUSTOM_RANKS if theory_name == "custom" else theory_name


# Shares are assumed, not measured: every kind appears once a round.
KINDS = (
    "cell_pd",
    "cell_bundle",
    "cell_qprod",
    "cell_qbundle",
    "point_table",
    "check_splitting",
    "check_pbf",
    "check_a1",
    "check_mv",
    "check_grothendieck",
    "check_transfer",
)
WEIGHTS = dict.fromkeys(KINDS, 1)
POOL = 30 * len(WEIGHTS)


class Workload:
    def __init__(self, seed: int, tmpdir):
        self.rng = random.Random(seed)
        self.seq = {kind: Kronecker() for kind in WEIGHTS}
        # Fixed sizes: the seed drives the query stream, so set-up cost and
        # the per-query cost of each model are the same for every seed.
        self.d = 150
        self.r_bundle = 8
        self.r_qbundle = 5
        self.pd = spaces.projective_space(self.d)
        self.curves = spaces.product(spaces.curve(2), spaces.curve(3))
        self.bundle = spaces.projective_bundle(self.curves, self.r_bundle)
        self.qprod = spaces.quasi_product(
            spaces.as_quasiproj(spaces.projective_space(4)),
            spaces.as_quasiproj(spaces.projective_space(4)),
        )
        self.gm_curve = spaces.quasi_product(spaces.gm(), spaces.as_quasiproj(spaces.curve(2)))
        self.qbundle = spaces.projective_bundle(self.gm_curve, self.r_qbundle)
        self.small_pd = spaces.projective_space(12)
        self.mv = (spaces.projective_space(1), spaces.affine_space(1), spaces.affine_space(1), spaces.gm())
        # Warm-up: the lowest-degree MU query on each model fills the
        # partition numbers every later query needs.
        for model in (self.pd, self.bundle, self.qprod, self.qbundle, self.small_pd):
            hfc_group(model, THEORIES["MU"], -4, 0)
        point_table(THEORIES["MU"], (-60, 60), (-30, 30))

    def ops(self):
        for kind in schedule(self.rng, WEIGHTS):
            yield getattr(self, "_" + kind)(self.seq[kind])

    # -- cells ---------------------------------------------------------------------

    def _cell(self, kind, model, seq, reference, mode):
        rng = self.rng
        top = model.max_degree
        n = seq.int(-4, top + 2)
        theory = NAMES[seq.i % len(NAMES)]
        p = rng.randint(-3, top // 2 + 2)
        variant = "analytic" if isinstance(model, spaces.KahlerModel) else "log"

        def run(tr):
            with tr.span("engine.hfc_group"):
                return hfc_group(model, THEORIES[theory], n, p, variant)

        def check(result, error):
            if error is not None:
                return ("fail", f"{kind}: {error!r}")
            got, want = as_tuple(result), reference(theory, n, p)
            return None if agree(got, want, mode) else ("fail", f"{kind} {theory}({n},{p}): {got} != {want}")

        return Op(kind, run, check, key=as_tuple)

    def _cell_pd(self, seq):
        counts = cell_counts(self.d)
        return self._cell("cell_pd", self.pd, seq, lambda t, n, p: cellular_cell(_spec(t), counts, n, p), "full")

    def _cell_bundle(self, seq):
        return self._cell("cell_bundle", self.bundle, seq, self._over(self.curves, self.r_bundle, "analytic"), "full")

    def _cell_qprod(self, seq):
        counts = cell_counts(4, 4)
        return self._cell("cell_qprod", self.qprod, seq, lambda t, n, p: cellular_cell(_spec(t), counts, n, p), "noctd")

    def _cell_qbundle(self, seq):
        return self._cell("cell_qbundle", self.qbundle, seq, self._over(self.gm_curve, self.r_qbundle, "log"), "noctd")

    def _over(self, base, r, variant):
        """Projective bundle formula: the bundle's cell from its base's cells."""

        def reference(theory, n, p):
            cell = lambda nn, pp: as_tuple(hfc_group(base, THEORIES[theory], nn, pp, variant))
            return shifted(cell, cell_counts(r - 1), n, p)

        return reference

    # -- grids and checkers -----------------------------------------------------------

    def _point_table(self, seq):
        hn, hp = seq.int(4, 40), seq.second_int(2, 20)
        theory = ("MU", "HZ", "custom")[seq.i % 3]
        n_range, p_range = (-hn, hn), (-hp, hp)

        def run(tr):
            with tr.span("engine.point_table"):
                return point_table(THEORIES[theory], n_range, p_range)

        def check(result, error):
            if error is not None:
                return ("fail", f"point_table: {error!r}")
            rank = rank_function(_spec(theory))
            for (n, p), desc in result.items():
                if as_tuple(desc) != point_cell(rank, n, p):
                    return ("fail", f"point_table {theory}({n},{p}): {as_tuple(desc)}")
            if len(result) != (2 * hn + 1) * (2 * hp + 1):
                return ("fail", "point_table: wrong number of cells")
            return None

        return Op("point_table", run, check, key=lambda grid: {cell: as_tuple(desc) for cell, desc in grid.items()})

    def _verdict_op(self, kind, call):
        def run(tr):
            with tr.span("engine." + kind[6:]):
                return call()

        def check(result, error):
            if error is not None:
                return ("fail", f"{kind}: {error!r}")
            ok = result if isinstance(result, bool) else result[0]
            return None if ok else ("fail", f"{kind}: law violated: {result}")

        return Op(kind, run, check)

    def _check_splitting(self, seq):
        rng = self.rng
        # The splitting sums p(j) copies of each HQ cell, so it stays on the
        # models of small top degree: on P^150 it would need p(75) ~ 8e6 terms.
        model = (self.curves, self.small_pd, self.qprod, self.gm_curve)[seq.i % 4]
        n, p = seq.int(0, 16), rng.randint(0, 6)
        return self._verdict_op("check_splitting", lambda: rational_splitting_check(model, n, p))

    def _check_pbf(self, seq):
        rng = self.rng
        model = (self.curves, self.small_pd, self.gm_curve)[seq.i % 3]
        r, n, p = seq.int(2, 6), rng.randint(-2, 12), rng.randint(-1, 6)
        theory = THEORIES[NAMES[seq.i % len(NAMES)]]
        return self._verdict_op("check_pbf", lambda: pbf_check(model, r, n, p, theory))

    def _check_a1(self, seq):
        rng = self.rng
        model = (self.qprod, self.qbundle, self.gm_curve)[seq.i % 3]
        n, p = seq.int(-2, 12), rng.randint(-1, 6)
        theory = THEORIES[NAMES[seq.i % len(NAMES)]]
        return self._verdict_op("check_a1", lambda: a1_invariance_check(model, theory, n, p))

    def _check_mv(self, seq):
        # Known defect: mv_consistency sums Euler characteristics over
        # degrees 0..top only, so for a theory with rank outside j = 0 the
        # truncated sums miss terms and the verdict is False on the valid
        # cover P^1 = A^1 u A^1, A^1 n A^1 = Gm.  A False verdict counts as
        # the known defect "mv_truncated_degree_window" only where the
        # truncated Euler sums, worked out independently, are nonzero too.
        p = seq.int(-3, 3)
        theory = ("HZ", "MU", "HQ", "custom")[seq.i % 4]
        truncated = mv_truncated_verdict(_spec(theory), p)
        op = self._verdict_op("check_mv", lambda: mv_consistency(*self.mv, THEORIES[theory], p))
        law = op.check

        def check(result, error):
            verdict = law(result, error)
            if verdict is not None and result is False and not truncated:
                return ("known", "mv_truncated_degree_window")
            return verdict

        return Op(op.kind, op.run, check)

    def _check_grothendieck(self, seq):
        rng = self.rng
        r = seq.int(1, 6)
        chern = [{(q,): rng.randint(1, 9)} for q in range(1, rng.randint(0, r) + 1)]
        return self._verdict_op("check_grothendieck", lambda: grothendieck_check(self.pd, r, chern))

    def _check_transfer(self, seq):
        k = seq.int(1, 9)
        divisor_class = {(1,): k}
        want = (True, 1, cellular_cell("MU", cell_counts(self.d), 2, 1)[0])
        op = self._verdict_op("check_transfer", lambda: transfer_normalization_check(self.pd, divisor_class))
        law = op.check

        def check(result, error):
            return law(result, error) or (None if result == want else ("fail", f"transfer: {result} != {want}"))

        return Op(op.kind, op.run, check)
