"""Abel-Jacobi identity corpus: what a change to the numerics must keep.

For a seeded set of 150 curves (real with positive and with negative
discriminant, complex, and near-singular, at 20, 40 and 100 digits) the
corpus records w1, w2, the roots, point_at at one z0, and the Abel-Jacobi
values of [P] - [Q] for two generic points, of [T] - [O] for the three
branch points and of [point_at(h + 10^-k w1)] - [O] near a half period h
(k <= 20, where the logarithm of x alone also keeps every digit).
Periods, roots and points print as ``mp.nstr`` at the curve's digits.  An
Abel-Jacobi value prints as its coordinates (a, b) mod 1, z = a w1 + b w2,
each rounded to ``digits`` decimals: that compares values mod L to
10^-digits |w1|, where ``nstr`` would print a tiny part (z near a half
period) to ``digits`` significant digits, far below the working
precision's absolute error.  Generic points are built with mpmath alone,
at digits + 30; branch points are (e_i, 0) with the curve's own roots.

    PYTHONPATH=src python tests/aj_identity.py           # compare with the golden
    PYTHONPATH=src python tests/aj_identity.py --write   # rewrite the golden

Comparing prints each differing line and exits 1.  The golden is
``tests/golden/aj_identity.txt``; tier-1 runs the comparison
(``test_abeljacobi.py::TestIdentityCorpus``).
"""

from __future__ import annotations

import argparse
import cmath
import math
import random
import sys
from pathlib import Path

from mpmath import mp, mpc, mpf

from hfcalc.abeljacobi import Divisor, EllipticCurve

GOLDEN = Path(__file__).resolve().parent / "golden" / "aj_identity.txt"
SEED = 20160
DIGITS = (20, 40, 100)
# Curves per precision: 50 of each digits, 150 in all.
COUNTS = {"real_pos": 13, "real_neg": 13, "complex": 13, "near_singular": 11}


def _invariants(shape, digits, rng):
    """(g2, g3) for one shape, as mpc at digits + 10."""
    if shape == "real_pos":
        g2 = 10 ** rng.uniform(-3, 3)
        g2, g3 = g2, rng.choice((-1, 1)) * rng.uniform(0.05, 0.95) * math.sqrt(g2 ** 3 / 27)
    elif shape == "real_neg":
        g2, g3 = -(10 ** rng.uniform(-3, 4)), rng.choice((-1, 1)) * 10 ** rng.uniform(-3, 4)
    elif shape == "complex":
        while True:
            g2 = 10 ** rng.uniform(-3, 4) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            g3 = 10 ** rng.uniform(-3, 4) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            if abs(g2 ** 3 - 27 * g3 ** 2) > 1e-2 * max(abs(g2) ** 3, 27 * abs(g3) ** 2):
                break
    else:
        # g3 = sqrt(g2^3 / 27) (1 +- 10^-u): |disc| / scale about 10^-u.
        g2 = 10 ** rng.uniform(-1.5, 2.5) * cmath.exp(1j * rng.choice((0.0, 1.0, 2.2)))
        u, sign = rng.uniform(2, digits / 2), rng.choice((-1, 1))
        with mp.workdps(digits + 10):
            g2 = mpc(g2)
            return g2, mp.sqrt(g2 ** 3 / 27) * (1 + sign * mpf(10) ** -mpf(u))
    with mp.workdps(digits + 10):
        return mpc(g2), mpc(g3)


def _point(g2, g3, x, rng):
    """(x, +-sqrt(4x^3 - g2 x - g3)), at the current precision."""
    y = mp.sqrt(4 * x ** 3 - g2 * x - g3)
    return x, (y if rng.random() < 0.5 else -y)


def _cell(e, z):
    """z mod L as "0.<a> 0.<b>": its coordinates, rounded to digits decimals, mod 1."""
    scale = 10 ** e.digits
    with mp.workdps(e._workdps):
        return " ".join(f"0.{int(mp.nint(c * scale)) % scale:0{e.digits}d}" for c in e.frac_coords(z))


def corpus_lines(curves=None):
    """The corpus, one string per line; each curve is also appended to
    ``curves`` when a list is given."""
    rng = random.Random(SEED)
    lines = []
    for digits in DIGITS:
        for shape, count in COUNTS.items():
            for n in range(count):
                g2, g3 = _invariants(shape, digits, rng)
                e = EllipticCurve(g2, g3, digits)
                if curves is not None:
                    curves.append(e)
                with mp.workdps(digits + 30):
                    span = max(abs(g2) ** (mpf(1) / 2), abs(g3) ** (mpf(1) / 3))
                    p, q = (_point(g2, g3, mpc(rng.uniform(-2, 2), rng.uniform(-2, 2)) * span, rng) for _ in "pq")
                a, b = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
                half, k = rng.randrange(3), rng.randint(2, min(digits // 2, 20))

                def out(v):
                    return mp.nstr(v, digits)

                with mp.workdps(e._workdps):
                    z0 = mpf(a) * e.w1 + mpf(b) * e.w2
                    near = (e.w1 / 2, e.w2 / 2, (e.w1 + e.w2) / 2)[half] + mpf(10) ** -k * e.w1
                    x0, y0 = e.point_at(z0)
                    values = [
                        e.aj(Divisor.of([(p, 1), (q, -1)])),
                        *(e.aj(Divisor.of([((r, 0), 1), (None, -1)])) for r in e.roots),
                        e.aj(Divisor.of([(e.point_at(near), 1), (None, -1)])),
                    ]
                lines += [
                    f"{shape} {n} digits={digits} g2={mp.nstr(g2, digits + 10)} g3={mp.nstr(g3, digits + 10)}",
                    f"  w1 {out(e.w1)} w2 {out(e.w2)}",
                    f"  roots {' '.join(out(r) for r in e.roots)}",
                    f"  point_at({a!r} w1 + {b!r} w2) {out(x0)} {out(y0)}",
                    f"  aj [P]-[Q] {_cell(e, values[0])}",
                    *(f"  aj [T{i + 1}]-[O] {_cell(e, v)}" for i, v in enumerate(values[1:4])),
                    f"  aj near half period {half} at 10^-{k} w1 {_cell(e, values[4])}",
                ]
    return lines


def differences(lines, golden):
    """(line number, want, got) for each line of ``lines`` that differs."""
    want = golden.splitlines()
    if len(want) != len(lines):
        return [(0, f"{len(want)} lines", f"{len(lines)} lines")]
    return [(i + 1, w, g) for i, (w, g) in enumerate(zip(want, lines)) if w != g]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="rewrite the golden instead of comparing")
    args = parser.parse_args(argv)
    lines = corpus_lines()
    if args.write:
        GOLDEN.write_text("\n".join(lines) + "\n")
        print(f"wrote {len(lines)} lines to {GOLDEN}")
        return 0
    diff = differences(lines, GOLDEN.read_text())
    for line, want, got in diff:
        print(f"line {line}:\n  want {want}\n  got  {got}")
    print(f"{len(diff)} of {len(lines)} lines differ")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
