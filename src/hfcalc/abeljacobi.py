"""Numerical Abel-Jacobi map for elliptic curves.

Everything works on the Weierstrass model y^2 = 4x^3 - g2 x - g3 over C.
The period lattice L = Z w1 + Z w2 realizes the Jacobian J^1 = C/L, the
elliptic logarithm inverts the parametrization z -> (wp(z), wp'(z)), and
the Abel-Jacobi map sends a degree-zero divisor to the lattice-reduced sum
of the logarithms of its points.

Numerical scheme (all at a configurable working precision, default 40
decimal digits plus internal guard digits):

* periods by the arithmetic-geometric mean over C with the standard
  optimal-branch selection rule (|a - b| <= |a + b| at every step), applied
  to square roots of root differences; the root labelling is fixed by
  requiring that recomputing g2, g3 from the lattice via Eisenstein
  q-series reproduces the inputs;
* elliptic logarithm by a descending-Landen-type duplication (Carlson's
  symmetric integral R_F), polished by Newton steps on wp(z) = x and
  sign-resolved against wp'(z) = y, with direct quadrature along a straight
  contour (t = x + s^2, branch-tracked) as an independent fallback;
* wp and wp' by Laurent series after lattice reduction and argument
  halving, followed by group-law doublings.  The coefficient table comes
  from the quadratic recurrence folded by symmetry (each product pair once),
  in real arithmetic when g2 and g3 are real; the series and its derivative
  are summed together by one Horner pass in z^2.

Real curves with positive discriminant come out in the rectangular
normalization (w1 real, w2 purely imaginary); in all cases Im(w2/w1) > 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from mpmath import mp, mpc, mpf

from hfcalc.errors import CurveError

__all__ = ["EllipticCurve", "Divisor", "periods", "lattice_invariants", "complex_agm", "carlson_rf"]

_GUARD_DIGITS = 25

Point = Optional[tuple]  # (x, y) affine, or None for the point at infinity


def complex_agm(a, b):
    """Arithmetic-geometric mean over C with the optimal branch rule.

    At every step the square root sign is chosen so that
    |a_{n+1} - b_{n+1}| <= |a_{n+1} + b_{n+1}|, ties broken towards
    Im(b/a) > 0.  Converges quadratically away from b = -a.
    """
    a, b = mpc(a), mpc(b)
    if a == 0 or b == 0:
        return mp.zero
    tol = mpf(10) ** (-(mp.dps - 3))
    for _ in range(mp.dps * 4 + 40):
        am = (a + b) / 2
        gm = mp.sqrt(a * b)
        if abs(am - gm) > abs(am + gm):
            gm = -gm
        elif abs(am - gm) == abs(am + gm) and mp.im(gm / am) < 0:
            gm = -gm
        a, b = am, gm
        if abs(a - b) <= tol * abs(a):
            return (a + b) / 2
    raise CurveError("complex AGM failed to converge")


def carlson_rf(x, y, z):
    """Carlson's symmetric elliptic integral R_F(x, y, z).

    Duplication theorem with principal square roots, finished with the
    standard fifth-order Taylor expansion around the equal-argument point.
    """
    x, y, z = mpc(x), mpc(y), mpc(z)
    if sum(1 for v in (x, y, z) if v == 0) > 1:
        raise CurveError("R_F diverges when two arguments vanish")
    cutoff = mpf(10) ** (-mp.dps / mpf(6))
    for _ in range(mp.dps * 4 + 60):
        sx, sy, sz = mp.sqrt(x), mp.sqrt(y), mp.sqrt(z)
        lam = sx * sy + sy * sz + sz * sx
        x, y, z = (x + lam) / 4, (y + lam) / 4, (z + lam) / 4
        mu = (x + y + z) / 3
        if mu == 0:
            raise CurveError("R_F duplication degenerated")
        eps = max(abs(x - mu), abs(y - mu), abs(z - mu)) / abs(mu)
        if eps < cutoff:
            big_x = 1 - x / mu
            big_y = 1 - y / mu
            big_z = -big_x - big_y
            e2 = big_x * big_y - big_z ** 2
            e3 = big_x * big_y * big_z
            series = 1 - e2 / 10 + e3 / 14 + e2 ** 2 / 24 - 3 * e2 * e3 / 44
            return series / mp.sqrt(mu)
    raise CurveError("R_F failed to converge")


def _reduce_tau(w1, w2):
    """SL_2(Z)-reduce the basis so tau = w2/w1 is in the fundamental domain."""
    for _ in range(10000):
        tau = w2 / w1
        shift = mp.nint(mp.re(tau))
        if shift != 0:
            w2 = w2 - shift * w1
            tau = w2 / w1
        if abs(tau) < 1 - mpf(10) ** (-mp.dps):
            w1, w2 = w2, -w1
            continue
        return w1, w2
    raise CurveError("lattice basis reduction failed")


def lattice_invariants(w1, w2):
    """Weierstrass g2, g3 of the lattice Z w1 + Z w2 via Eisenstein q-series.

    Uses E4 and E6 on an SL_2(Z)-reduced basis, where |q| <= exp(-pi sqrt 3)
    and a few dozen terms give full working precision.
    """
    w1, w2 = mpc(w1), mpc(w2)
    if mp.im(w2 / w1) < 0:
        w2 = -w2
    if mp.im(w2 / w1) == 0:
        raise CurveError("degenerate lattice: periods are R-linearly dependent")
    r1, r2 = _reduce_tau(w1, w2)
    tau = r2 / r1
    q = mp.exp(2j * mp.pi * tau)
    tol = mpf(10) ** (-(mp.dps + 10))
    e4 = mp.one
    e6 = mp.one
    qn = mpc(1)
    for n in range(1, mp.dps * 4 + 64):
        qn *= q
        frac = qn / (1 - qn)
        t4 = 240 * n ** 3 * frac
        t6 = 504 * n ** 5 * frac
        e4 += t4
        e6 -= t6
        if abs(t4) < tol and abs(t6) < tol:
            break
    scale = 2 * mp.pi / r1
    g2 = scale ** 4 * e4 / 12
    g3 = scale ** 6 * e6 / 216
    return g2, g3


@dataclass(frozen=True)
class Divisor:
    """A formal sum of curve points with integer multiplicities."""

    entries: tuple  # ((point, multiplicity), ...)

    @classmethod
    def of(cls, entries: Sequence[tuple]) -> "Divisor":
        # Coordinates are kept as given; they are coerced to mpc inside the
        # curve's working precision at evaluation time (converting here
        # would round them to the ambient precision).
        out = []
        for pt, mult in entries:
            if pt is not None:
                x, y = pt
                pt = (x, y)
            out.append((pt, int(mult)))
        return cls(tuple(out))

    @property
    def degree(self) -> int:
        return sum(m for _pt, m in self.entries)

    def __add__(self, other: "Divisor") -> "Divisor":
        return Divisor(self.entries + other.entries)


class EllipticCurve:
    """y^2 = 4x^3 - g2 x - g3 with its period lattice and elliptic logarithm."""

    def __init__(self, g2, g3, digits: int = 40):
        if digits < 10:
            raise CurveError("working precision below 10 digits is not supported")
        self.digits = int(digits)
        self._workdps = self.digits + _GUARD_DIGITS
        with mp.workdps(self._workdps):
            try:
                self.g2 = mpc(g2)
                self.g3 = mpc(g3)
            except (TypeError, ValueError) as exc:
                raise CurveError(f"curve coefficients must be numbers: {exc}")
            disc = self.g2 ** 3 - 27 * self.g3 ** 2
            scale = max(abs(self.g2) ** 3, abs(self.g3) ** 2, mpf(1))
            if abs(disc) <= scale * mpf(10) ** (-self.digits):
                raise CurveError(f"singular curve: discriminant {disc} vanishes at working precision")
            self.discriminant = disc
            self.roots = self._sorted_roots()
            self.w1, self.w2 = self._compute_periods()
            self.tau = self.w2 / self.w1
            self._rho = self._shortest_vector()
            self._laurent = self._laurent_coefficients()
            self._half_periods = self._match_half_periods()

    # -- lattice construction ---------------------------------------------------

    def _sorted_roots(self):
        roots = mp.polyroots([mpc(4), mpc(0), -self.g2, -self.g3], maxsteps=200, extraprec=60)
        is_real = all(abs(mp.im(r)) < mpf(10) ** (-self.digits) * (1 + abs(r)) for r in roots)
        if is_real:
            roots = [mpc(mp.re(r)) for r in roots]
        return sorted(roots, key=lambda r: (-mp.re(r), -mp.im(r)))

    def _periods_for(self, e1, e2, e3):
        m1 = complex_agm(mp.sqrt(e1 - e3), mp.sqrt(e1 - e2))
        m2 = complex_agm(mp.sqrt(e1 - e3), mp.sqrt(e2 - e3))
        if m1 == 0 or m2 == 0:
            return None
        w1 = mp.pi / m1
        w2 = mp.pi * 1j / m2
        if mp.im(w2 / w1) == 0:
            return None
        if mp.im(w2 / w1) < 0:
            w2 = -w2
        return w1, w2

    def _compute_periods(self):
        from itertools import permutations

        tol = mpf(10) ** (-(self.digits - 3))
        best = None
        for perm in permutations(self.roots):
            pair = self._periods_for(*perm)
            if pair is None:
                continue
            g2r, g3r = lattice_invariants(*pair)
            err = max(
                abs(g2r - self.g2) / max(1, abs(self.g2)),
                abs(g3r - self.g3) / max(1, abs(self.g3)),
            )
            if err < tol:
                return pair
            if best is None or err < best[0]:
                best = (err, pair)
        raise CurveError(
            f"period lattice does not reproduce (g2, g3); best residual {best[0] if best else 'n/a'}"
        )

    def _shortest_vector(self):
        r1, r2 = _reduce_tau(self.w1, self.w2)
        candidates = [
            abs(m * r1 + n * r2)
            for m in (-1, 0, 1)
            for n in (-1, 0, 1)
            if (m, n) != (0, 0)
        ]
        return min(candidates)

    def _laurent_coefficients(self):
        # wp(z) = z^-2 + sum c_k z^{2k};  c_1 = g2/20, c_2 = g3/28, and the
        # rest follow from the quadratic recursion induced by wp'' = 6 wp^2 - g2/2:
        # c_k = 3 / ((2k + 3)(k - 2)) * sum_{m=1}^{k-2} c_m c_{k-1-m}.  The sum
        # is symmetric in m <-> k-1-m, so each pair is taken once and doubled,
        # plus the middle square when k - 1 is even.  Real g2, g3 give a real
        # table, which is cheaper to build and to evaluate.
        ratio = mpf("0.3")
        terms = int(mp.dps * mp.log(10) / (2 * abs(mp.log(ratio)))) + 12
        if mp.im(self.g2) == 0 and mp.im(self.g3) == 0:
            g2, g3, zero = mp.re(self.g2), mp.re(self.g3), mpf(0)
        else:
            g2, g3, zero = self.g2, self.g3, mpc(0)
        c = [zero] * (terms + 1)
        if terms >= 1:
            c[1] = g2 / 20
        if terms >= 2:
            c[2] = g3 / 28
        for k in range(3, terms + 1):
            acc = 2 * mp.fdot((c[m], c[k - 1 - m]) for m in range(1, k // 2))
            if k % 2 == 1:
                acc += c[(k - 1) // 2] ** 2
            c[k] = 3 * acc / ((2 * k + 3) * (k - 2))
        return c

    def _match_half_periods(self):
        halves = [self.w1 / 2, self.w2 / 2, (self.w1 + self.w2) / 2]
        assignment = {}
        for h in halves:
            x, _y = self.wp_pair_raw(h)
            idx = min(range(3), key=lambda i: abs(self.roots[i] - x))
            assignment[idx] = h
        if len(assignment) != 3:
            raise CurveError("half periods do not separate the branch points")
        return assignment

    # -- lattice bookkeeping ------------------------------------------------------

    def coords(self, z) -> tuple:
        """Real coordinates (a, b) with z = a w1 + b w2."""
        with mp.workdps(self._workdps):
            z = mpc(z)
            det = mp.re(self.w1) * mp.im(self.w2) - mp.im(self.w1) * mp.re(self.w2)
            a = (mp.re(z) * mp.im(self.w2) - mp.im(z) * mp.re(self.w2)) / det
            b = (mp.re(self.w1) * mp.im(z) - mp.im(self.w1) * mp.re(z)) / det
            return a, b

    def reduce_centered(self, z):
        with mp.workdps(self._workdps):
            a, b = self.coords(z)
            return mpc(z) - mp.nint(a) * self.w1 - mp.nint(b) * self.w2

    def reduce_fundamental(self, z):
        """Representative with z = a w1 + b w2, a, b in [0, 1)."""
        with mp.workdps(self._workdps):
            a, b = self.coords(z)
            return (a - mp.floor(a)) * self.w1 + (b - mp.floor(b)) * self.w2

    def frac_coords(self, z) -> tuple:
        with mp.workdps(self._workdps):
            a, b = self.coords(z)
            return a - mp.floor(a), b - mp.floor(b)

    def lattice_distance(self, z) -> mpf:
        with mp.workdps(self._workdps):
            zc = self.reduce_centered(z)
            best = abs(zc)
            for m in (-1, 0, 1):
                for n in (-1, 0, 1):
                    best = min(best, abs(zc - m * self.w1 - n * self.w2))
            return best

    # -- Weierstrass functions ------------------------------------------------------

    def wp_pair_raw(self, z) -> tuple:
        """(wp(z), wp'(z)) without precision management; z must avoid L."""
        z = self.reduce_centered(mpc(z))
        if abs(z) < mpf(10) ** (-(self._workdps - 5)) * self._rho:
            raise CurveError("wp evaluated at a lattice point")
        halvings = 0
        target = self._rho * mpf("0.3")
        while abs(z) > target:
            z /= 2
            halvings += 1
        # wp = z^-2 + S(w) and wp' = -2 z^-3 + 2 z S'(w) with w = z^2 and
        # S(w) = sum c_k w^k: one Horner pass gives S and S' together.
        w = z * z
        s, ds = mp.polyval(self._laurent[::-1], w, derivative=True)
        inv = 1 / w
        p = inv + s
        pp = 2 * z * ds - 2 * inv / z
        for _ in range(halvings):
            if abs(pp) == 0:
                raise CurveError("wp doubling passed through a branch point")
            slope = (6 * p * p - self.g2 / 2) / pp
            p2 = slope * slope / 4 - 2 * p
            pp2 = -(slope * (p2 - p) + pp)
            p, pp = p2, pp2
        return p, pp

    def wp_pair(self, z) -> tuple:
        with mp.workdps(self._workdps):
            return self.wp_pair_raw(z)

    def wp(self, z):
        return self.wp_pair(z)[0]

    def wp_prime(self, z):
        return self.wp_pair(z)[1]

    # -- point and divisor utilities ---------------------------------------------

    def on_curve_residual(self, pt: Point) -> mpf:
        if pt is None:
            return mpf(0)
        with mp.workdps(self._workdps):
            x, y = mpc(pt[0]), mpc(pt[1])
            lhs = y ** 2
            rhs = 4 * x ** 3 - self.g2 * x - self.g3
            scale = max(abs(lhs), abs(rhs), mpf(1))
            return abs(lhs - rhs) / scale

    def require_on_curve(self, pt: Point, slack: int = 2) -> None:
        res = self.on_curve_residual(pt)
        if res > mpf(10) ** (-(self.digits - slack)):
            raise CurveError(f"point is not on the curve: residual {mp.nstr(res, 8)}")

    def point_from_x(self, x, sign: int = 1) -> Point:
        with mp.workdps(self._workdps):
            x = mpc(x)
            y = mp.sqrt(4 * x ** 3 - self.g2 * x - self.g3)
            return (x, sign * y)

    def point_at(self, z) -> Point:
        """Forward parametrization z -> (wp(z), wp'(z))."""
        return self.wp_pair(z)

    # -- elliptic logarithm -----------------------------------------------------------

    def _log_by_quadrature(self, x, y):
        # Integrate dt / sqrt(4 t^3 - g2 t - g3) from x to infinity along
        # t = x + s^2.  Each factor t - e_i moves right along a horizontal
        # line, so principal square roots stay continuous; real roots ahead
        # of a real x are integrable branch points and become split points.
        e1, e2, e3 = self.roots
        sign = None
        splits = [mpf(0)]
        for e in self.roots:
            d = e - x
            if abs(mp.im(d)) < mpf(10) ** (-self._workdps + 5) and mp.re(d) > 0:
                splits.append(mp.sqrt(mp.re(d)))
        splits = sorted(set(splits))
        far = max(abs(e1 - x), abs(e2 - x), abs(e3 - x), mpf(1))
        splits.append(2 * mp.sqrt(far))

        def w(s):
            prod = mp.sqrt(x - e1 + s * s) * mp.sqrt(x - e2 + s * s) * mp.sqrt(x - e3 + s * s)
            return 2 * prod

        w0 = w(mpf(0))
        if abs(w0) > 0 and abs(y) > 0:
            sign = 1 if abs(w0 - y) <= abs(w0 + y) else -1
        else:
            sign = 1

        def integrand(s):
            return 2 * s / (sign * w(s))

        head = mp.quad(integrand, splits)
        # tail via s = 1/u; the integrand tends to a finite limit at u = 0
        tail = mp.quad(lambda u: integrand(1 / u) / u ** 2, [mpf(0), 1 / splits[-1]])
        return head + tail

    def elliptic_log(self, pt: Point):
        """z with wp(z) = x(P), wp'(z) = y(P), reduced to the fundamental cell."""
        if pt is None:
            return mpc(0)
        self.require_on_curve(pt)
        with mp.workdps(self._workdps):
            x, y = mpc(pt[0]), mpc(pt[1])
            e1, e2, e3 = self.roots
            tol = mpf(10) ** (-(self.digits - 3))
            scale = max(abs(x), mpf(1))
            # Branch points map to half periods.
            if abs(y) <= tol * max(abs(x) ** mpf("1.5"), 1):
                idx = min(range(3), key=lambda i: abs(self.roots[i] - x))
                if abs(self.roots[idx] - x) <= tol * scale * 10:
                    return self.reduce_fundamental(self._half_periods[idx])
            z = carlson_rf(x - e1, x - e2, x - e3)
            z = self._polish_and_orient(z, x, y)
            if z is None:
                z = self._polish_and_orient(self._log_by_quadrature(x, y), x, y)
            if z is None:
                raise CurveError("elliptic logarithm failed to converge for this point")
            return self.reduce_fundamental(z)

    def _polish_and_orient(self, z0, x, y):
        # Newton on wp(z) = x down to working precision, then pick the sign
        # of z from wp'; the public tolerance 10^(-digits+3) is checked with
        # a wide margin by the caller.
        goal = mpf(10) ** (-(self._workdps - 10))
        tol = mpf(10) ** (-(self.digits - 3))
        scale = max(abs(x), abs(y), mpf(1))
        z = mpc(z0)
        if self.lattice_distance(z) < self._rho * mpf(10) ** (-self.digits):
            return None
        for _ in range(100):
            p, pp = self.wp_pair_raw(z)
            if abs(p - x) <= goal * scale:
                break
            if pp == 0:
                return None
            step = (p - x) / pp
            if abs(step) > self._rho:
                step *= self._rho / (2 * abs(step))
            z -= step
        p, pp = self.wp_pair_raw(z)
        if abs(p - x) > tol * scale:
            return None
        if abs(pp - y) <= abs(pp + y):
            return z if abs(pp - y) <= tol * scale else None
        return -z if abs(pp + y) <= tol * scale else None

    # -- Abel-Jacobi ------------------------------------------------------------------

    def aj(self, divisor: Divisor):
        """Abel-Jacobi value of a degree-zero divisor in C/L (fundamental cell)."""
        if divisor.degree != 0:
            raise CurveError(f"divisor has degree {divisor.degree}, expected 0")
        with mp.workdps(self._workdps):
            total = mpc(0)
            for pt, mult in divisor.entries:
                if mult == 0:
                    continue
                total += mult * self.elliptic_log(pt)
            return self.reduce_fundamental(total)

    def is_torsion(self, pt: Point, bound: int) -> Optional[int]:
        """Least k <= bound with k * log(P) in the lattice, else None."""
        if pt is None:
            return 1
        with mp.workdps(self._workdps):
            z = self.elliptic_log(pt)
            tol = abs(self.w1) * mpf(10) ** (-(self.digits - 10))
            for k in range(1, bound + 1):
                if self.lattice_distance(k * z) <= tol:
                    return k
            return None


def periods(g2, g3, digits: int = 40) -> tuple:
    """Period basis (w1, w2) of y^2 = 4x^3 - g2 x - g3, Im(w2/w1) > 0."""
    curve = EllipticCurve(g2, g3, digits)
    return curve.w1, curve.w2
