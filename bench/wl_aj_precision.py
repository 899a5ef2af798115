"""aj_precision: build an EllipticCurve and evaluate Abel-Jacobi values.

Curves are seeded: real with positive discriminant, real with negative
discriminant, and complex, with |g2|, |g3| between 1e-3 and 1e4, at 20, 40
and 100 digits.  Each op builds the curve and evaluates two degree-zero
divisors, [P] - [Q] and [T] - [O] with T a 2-torsion point.
Points are made with mpmath alone (roots of 4x^3 - g2 x - g3 and square
roots), never with the program.

Checks, outside the timed interval:
* lattice_invariants(w1, w2) reproduces (g2, g3) to 10^-(digits-3);
* each divisor value maps under (wp, wp') to the chord-tangent sum of its
  points, computed independently at higher precision;
* the round trip aj([point_at(z)] - [O]) = z mod L within
  10^-(digits-3) |w1|; its achieved digits give accuracy_margin_digits.
"""

from __future__ import annotations

import cmath
import math
import random

from harness import Kronecker, Op, Tracer, schedule
from mpmath import mp, mpc, mpf
from oracles import ec_add, ec_neg

from hfcalc.abeljacobi import Divisor, EllipticCurve, lattice_invariants

TAIL_PCT = 90.0

DIGITS = (20, 40, 100)
SHAPES = ("real_pos", "real_neg", "complex")
# Shares are assumed, not measured: every shape and precision appears once a round.
WEIGHTS = {f"{shape}_d{d}": 1 for shape in SHAPES for d in DIGITS}
POOL = 2 * len(WEIGHTS)


def _curve(shape: str, seq, rng):
    """(g2, g3) as Python numbers for one shape of discriminant."""
    if shape == "real_pos":
        g2 = seq.log_uniform(1e-3, 1e3)
        g3 = rng.choice((-1, 1)) * rng.uniform(0.05, 0.95) * math.sqrt(g2 ** 3 / 27)
        return g2, g3
    if shape == "real_neg":
        return -seq.log_uniform(1e-3, 1e4), rng.choice((-1, 1)) * 10 ** rng.uniform(-3, 4)
    while True:
        g2 = seq.log_uniform(1e-3, 1e4) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        g3 = 10 ** rng.uniform(-3, 4) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        if abs(g2 ** 3 - 27 * g3 ** 2) > 1e-2 * max(abs(g2) ** 3, 27 * abs(g3) ** 2):
            return g2, g3


class Workload:
    def __init__(self, seed: int, tmpdir):
        self.rng = random.Random(seed)
        self.seq = {kind: Kronecker() for kind in WEIGHTS}
        self.margins: list[float] = []
        # Warm-up: mpmath caches constants per precision on first use.
        for d in DIGITS:
            op = self._make(f"real_pos_d{d}", Kronecker())
            verdict = op.check(op.run(Tracer()), None)
            if verdict is not None:
                raise RuntimeError(f"warm-up op failed its check: {verdict}")
        self.margins.clear()

    def ops(self):
        for kind in schedule(self.rng, WEIGHTS):
            yield self._make(kind, self.seq[kind])

    def extra_figures(self) -> dict:
        return {"accuracy_margin_digits": min(self.margins)}

    def _make(self, kind: str, seq) -> Op:
        rng = self.rng
        shape, digits = kind.rsplit("_d", 1)
        digits = int(digits)
        g2, g3 = _curve(shape, seq, rng)
        with mp.workdps(digits + 30):
            g2m, g3m = mpc(g2), mpc(g3)
            roots = mp.polyroots([4, 0, -g2m, -g3m], maxsteps=200, extraprec=100)
            span = max(abs(r) for r in roots) + 1

            def point(x):
                y = mp.sqrt(4 * x ** 3 - g2m * x - g3m)
                return (x, y if rng.random() < 0.5 else -y)

            P = point(mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) * span)
            Q = point(mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) * span)
            T = (roots[rng.randrange(3)], mpc(0))
            divisors = [Divisor.of([(P, 1), (Q, -1)]), Divisor.of([(T, 1), (None, -1)])]
            sums = [ec_add(P, ec_neg(Q), g2m, mpf(10) ** (-(digits + 20))), T]
        a, b = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)

        def run(tr):
            with tr.span("abeljacobi.EllipticCurve"):
                curve = EllipticCurve(g2m, g3m, digits)
            values = []
            for divisor in divisors:
                with tr.span("abeljacobi.aj"):
                    values.append(curve.aj(divisor))
            return curve, values

        def check(result, error):
            if error is not None:
                return ("fail", f"{kind} g2={g2} g3={g3}: {error!r}")
            curve, values = result
            with mp.workdps(curve._workdps):
                tol = mpf(10) ** (-(digits - 3))
                g2r, g3r = lattice_invariants(curve.w1, curve.w2)
                if abs(g2r - g2m) > tol * max(1, abs(g2m)) or abs(g3r - g3m) > tol * max(1, abs(g3m)):
                    return ("fail", f"{kind}: lattice invariants do not reproduce (g2, g3)")
                for z, want in zip(values, sums):
                    if want is None:
                        if curve.lattice_distance(z) > tol * abs(curve.w1):
                            return ("fail", f"{kind}: principal divisor off the lattice")
                        continue
                    x, y = curve.point_at(z)
                    scale = max(1, abs(want[0]), abs(want[1]))
                    if abs(x - want[0]) > tol * scale or abs(y - want[1]) > tol * scale:
                        return ("fail", f"{kind} g2={g2} g3={g3}: (wp, wp') of the AJ value misses the point sum")
                z0 = a * curve.w1 + b * curve.w2
                z1 = curve.aj(Divisor.of([(curve.point_at(z0), 1), (None, -1)]))
                dist = curve.lattice_distance(z1 - z0)
                if dist > tol * abs(curve.w1):
                    return ("fail", f"{kind}: round trip misses z by {mp.nstr(dist, 5)}")
                achieved = curve._workdps if dist == 0 else float(-mp.log10(dist / abs(curve.w1)))
                self.margins.append(min(achieved, curve._workdps) - digits)
            return None

        return Op(kind, run, check, key=lambda result: (result[0].w1, result[0].w2, *result[1]))
