"""Numerical Abel-Jacobi map for elliptic curves.

Everything works on the Weierstrass model y^2 = 4x^3 - g2 x - g3 over C.
The period lattice L = Z w1 + Z w2 realizes the Jacobian J^1 = C/L, the
elliptic logarithm inverts the parametrization z -> (wp(z), wp'(z)), and
the Abel-Jacobi map sends a degree-zero divisor to the sum of the
unreduced logarithms of its points, reduced into the fundamental cell once.
Every modulus test compares squared moduli, as in |a - b|^2 - |a + b|^2 =
-4 Re(a conj(b)), and on Python integers: with 2^t a bound on the curve's
size s = max(|g2|^(1/4), |g3|^(1/6)) (and on |x|^(1/2), |y|^(1/3) of the
point at hand), a number of weight k is an integer in units of 2^(k t - W),
W = prec + 16 bits, and a threshold 10^-k enters as the integer 10^2k.  A
square root is taken only to print a failing residual.  Every divisor takes
that one path, a branch point's logarithm being its exact half period, which
the reduction leaves as it is.  The elliptic logarithm of P is the map's
value on [P] - [O].

Numbers cross between mpmath and integers at the ends only, each into a
unit its own size sets, so that parts or coefficients whose exponents lie
far apart cost no more than others.  g2 and g3 enter once, as integers
with 2 prec + 20 bits below bounds read off their exponents
(``_curve_scale``), and the set-up runs on integers from there, one way:
it rounds the roots, w1, w2 and w1 + w2 once on their integers (``_round``,
as mpmath rounds), goes on from those, and publishes the roots, w1, w2,
tau, the discriminant and the reduced basis, each rounded once, never
reading one back.  In ``aj`` the point coordinates enter
once (x and y truncated to their units, y also with prec + 40 bits of its
own where the logarithm translates through a branch point, ``_relative``),
and the reduced z leaves once, an mpc at the working precision, with its
coordinates (``_reduce``).  In between z is a triple (re, im, exp) of
integers, (re + i im) 2^exp (``hfcalc._elementary``).  Every mpc and
every conversion lives here; the integer kernels (``hfcalc._fixedpoint``,
``hfcalc._elementary``) read nothing of mpmath and take the working
precision as arguments: the curve's, read once at set-up, or the caller's,
read once by ``complex_agm`` and ``lattice_invariants``.

Numerical scheme (all at a configurable working precision, default 40
decimal digits, at most MAX_DIGITS, plus internal guard digits; near-singular
curves get more, see ``EllipticCurve``):

* the discriminant and scale^2 = max(|g2|^6, |g3|^4) exactly on the
  integers of g2 and g3 (``_curve_scale``, ``_discriminant``); the roots
  of 4x^3 - g2 x - g3 by Cardano's formula (DLMF 1.11(iii)) at twice the
  working precision (``_cardano``): ``_csqrt`` for its square root and
  Newton's iteration for its cube root (``_ccbrt``) are its only loops,
  and parts below eps 2^(2t), 2^t the curve's size bound, are chopped on
  the integers (``_chop``);
* periods by the arithmetic-geometric mean over C with the optimal-branch
  rule (|a - b| <= |a + b| at every step, tested without square roots as
  Re(a conj(b)) >= 0), after Cremona-Thongjunthug
  (J. Number Theory 133, 2013): with the roots sorted e1, e2, e3, take
  a = sqrt(e1 - e3), b = sqrt(e1 - e2), c = sqrt(e2 - e3), negate b or c
  when that brings it closer to a, and set w1 = pi / M(a, b),
  w2 = pi i / M(a, c).  The differences of the roots are exact, and their
  square roots are ``_csqrt`` straight into each AGM's unit
  (``_agm_roots``).  The AGM runs in fixed point on Python integers
  (``_agm_sequence``), each part of a_n and b_n one integer in units of
  2^(e - wp), e = max(mag a, mag b), with wp = prec + 30 + |mag a - mag b|
  bits so that the smaller of a and b keeps its relative accuracy; square
  roots are ``math.isqrt``, conversion and halving truncate towards 0, so a
  conjugate pair steps to exactly real pairs, and the sign test and the stop
  rule are exact integer comparisons.  The SL_2(Z) reduction of the basis
  runs on the exact integers of w1 and w2 (``_reduce_basis``) and tracks
  its integer matrix, whose rows give the coordinates of the reduced basis
  in (w1, w2) and so the half period of each root with no solve.  The
  nome q^(1/4) = exp(i pi tau / 4) is an integer exp, cos and sin
  (``_nome``), and the theta constants of the reduced basis, the theta
  sums at v = 0 (``_theta_sums``) computed once, give e1, e2, e3, g2
  and g3 of the lattice as integers (``_theta_lattice``); g2 and g3 must
  reproduce the inputs to 10^-(digits-3) s^4 and s^6: g2 and g3 have
  weights 4 and 6, so the check, like the singular-curve test, reads the
  same on (l^4 g2, l^6 g3) for every scale l;
* elliptic logarithm from the same AGM (Cremona-Thongjunthug): the curve
  keeps d_n = a_n^2 - b_n^2, n = 1..N, of the pairs of M(a, b), N >= 1 the
  first index with |a_N - b_N| <= 10^-(dps-3) |a_N|, and 2M = a_N + b_N,
  and every logarithm walks them: from c = sqrt(x - e3),
  c <- (c + s)/2 with s the root of c^2 - a_n^2 + b_n^2 nearer c, per pair,
  then z = asin(M / c) / M (``_agm_log``).  Every step runs on integers in
  the AGM's units; the step of pair 0 (``_log_start``) takes
  s = sqrt(x - e2), the same number by exact algebra, by ``_csqrt`` of
  x - e3 and x - e2, so a real point on a real curve with e2 = conj(e3)
  gets a c with an exact 0 part.  The arcsine is Halley's iteration on the
  integer cos and sin from the float value (``_asin``).  Before the walk,
  the point's on-curve residual (exact on its integer coordinates), the
  nearest root and the branch-point and half-period tests run on
  integers, as do, after it, the sign of wp'(z) and the miss check: z is
  signed so that wp'(z) = y, and one evaluation of (wp, wp') at z must
  reproduce the point to 10^-(digits-3) of max(|x|, s^2) and
  max(|y|, s^3), x and y having weights 2 and 3.  A branch point (e_i, 0),
  y = 0 exactly, maps to its half period w1/2, w2/2 or (w1 + w2)/2 without
  a logarithm, the triple of the rounded w1, w2 or w1 + w2 halved: at
  set-up each root is matched to the nearest of the theta values of wp at
  the reduced basis's half periods (DLMF 23.6(i)), a match that must be
  one to one.  Near a half period w_i (x within a quarter of
  e_i's gap to the other roots), x - e_i comes from y, and the logarithm
  is that of P + T_i, near O, plus w_i (``_translate``);
* wp and wp' from Jacobi theta functions on the same reduced basis (DLMF
  23.6(i)), about sqrt(digits) terms per evaluation and no table.  z is
  reduced against the reduced basis on exact integers (Cramer's rule with
  the basis's determinant, the remainders taken mod 2 det where z's unit
  lies above the basis's, ``_cell_nearest``), and v = k z, k = pi / r1,
  takes an integer cos and sin (``_cos_sin``).  The theta sums run in
  fixed point on Python integers, with guard bits that follow from the
  terms' size bound (``_theta_sums``); the term count needs
  L = -4 log|q^(1/4)| = pi Im(tau), stored at set-up.  wp and wp' take the
  ratios R = theta4/theta1 and S = theta2 theta3/theta1^2 on those
  integers and finish there as wp = K2 R^2 + e3, wp' = K3 R S with K2, K3
  and e3 stored at set-up as integers (``_wp_fixed``); ``wp_pair`` rounds
  each once;
* the reduction into the fundamental cell solves z = a w1 + b w2 exactly,
  a and b fractions of integers, so the snap of a coordinate to an integer
  and the floor are exact (``_reduce``); a z so far above the basis that
  every coordinate snaps costs no shift of its exponent's size, and one
  over 2^16 bits below it loses the coordinates' bits below 2^-65536.

Real curves with positive discriminant come out in the rectangular
normalization (w1 real, w2 purely imaginary); in all cases Im(w2/w1) > 0.
"""

from __future__ import annotations

import math
import operator
from typing import Optional, Sequence

from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp, from_rational, fzero, mpf_shift, to_int

from hfcalc._elementary import (
    _align,
    _ccbrt,
    _cell_coords,
    _cell_nearest,
    _cell_reduce,
    _dist2,
    _less,
    _round,
    _scale,
    _tshift,
    _zadd,
    _ZBITS,
    _zdiv,
    _ZERO,
    _zfix,
    _zmag,
    _zmul,
    _zsqrt,
)
from hfcalc._fixedpoint import (
    _agm_log,
    _agm_pairs,
    _agm_unit,
    _cardano,
    _chop,
    _discriminant,
    _periods,
    _reduce_basis,
    _residual2,
    _theta_lattice,
    _theta_sums,
    _translate,
    _wp_thetas,
)
from hfcalc._frozen import Frozen
from hfcalc.errors import CurveError

__all__ = ["EllipticCurve", "Divisor", "lattice_invariants", "complex_agm", "carlson_rf"]

_GUARD_DIGITS = 25
MAX_DIGITS = 1000  # curve set-up: about 0.01 s at 400 digits, 0.05 s at 800
MAX_AGM_GAP = 1 << 16  # bits between complex_agm's moduli: 0.8 s at the limit on one Intel Xeon core
# lattice_invariants' reduced Im(tau); a curve's stays below (digits log 10
# + log 1728) / (2 pi), about 368 at MAX_DIGITS, or it would read singular.
MAX_IM_TAU = 10000

Point = Optional[tuple]  # (x, y) affine, or None for the point at infinity


# -- conversions between mpmath and integers ----------------------------------------


def _fixed(x, wp):
    """(Re x, Im x) as integers in units of 2^-wp, truncated towards 0, so
    that -x and conj(x) give exactly the negated parts; a zero part stays 0."""
    return to_int(mpf_shift(x.real._mpf_, wp)), to_int(mpf_shift(x.imag._mpf_, wp))


def _unfixed(re, im, exp):
    """The mpc (re + i im) 2^exp, rounded once to the current precision."""
    prec, rnd = mp._prec_rounding
    return mp.make_mpc((from_man_exp(re, exp, prec, rnd), from_man_exp(im, exp, prec, rnd)))


def _mag(x):
    """An integer e with |x| < 2^e for a nonzero mpf or mpc x (mpmath's
    ``mag``, read off the parts' exponents and bit counts)."""
    return max(exp + bc for _sign, man, exp, bc in (x.real._mpf_, x.imag._mpf_) if man)


def _exact(x):
    """The mpc or mpf x as a triple (re, im, exp), exactly: exp is the
    smaller exponent of its nonzero parts, read off mpmath's
    (sign, mantissa, exponent, bit count) tuples."""
    parts = x._mpc_ if hasattr(x, "_mpc_") else (x._mpf_, fzero)
    exp = min((e for _s, man, e, _bc in parts if man), default=0)
    re, im = ((-man if sign else man) << e - exp if man else 0 for sign, man, e, _bc in parts)
    return re, im, exp


def _relative(x, prec):
    """The mpc x as a triple with prec + ``_ZBITS`` bits below its size
    (``_fixed``), 0 as (0, 0, 0): a part further below truncates towards 0,
    so however far apart the parts' exponents lie, the integers stay that
    size.  For a z or y handed in whole; ``_exact`` serves a lattice's periods."""
    if not x:
        return 0, 0, 0
    wp = prec + _ZBITS - _mag(x)
    return (*_fixed(x, wp), -wp)


def _curve_scale(g2, g3, b):
    """The mpc g2 and g3 as integer pairs in units of 2^(4u - b) and
    2^(6u - b), u with |g2| < 2^(4u) and |g3| < 2^(6u) read off their
    exponents, and u; on those integers, the discriminant g2^3 - 27 g3^2 as
    a triple and scale^2 = max(|g2|^6, |g3|^4) = s^24 as (n, exp), n 2^exp.
    ``_fixed`` truncates a part further below the unit towards 0, so a wide
    spread of exponents costs nothing; all are exact when every part lies
    within b - prec bits of its coefficient's bound."""
    u = max((-(-(_mag(g) + 1) // k) for g, k in ((g2, 4), (g3, 6)) if g), default=0)
    g = _fixed(g2, b - 4 * u), _fixed(g3, b - 6 * u)
    n2, n3 = (re * re + im * im for re, im in g)
    scale2 = max(n2 * n2 * n2, n3 * n3 << 2 * b), 24 * u - 6 * b
    return g, u, (*_discriminant(*g, b), 12 * u - 3 * b), scale2


def _agm_sequence(a, b, prec, dps):
    """(unit, pairs) of ``_agm_pairs`` for the nonzero mpc a and b, each
    truncated to the unit of ``_agm_unit``."""
    unit = _agm_unit(mp.mag(a), mp.mag(b), prec)
    return unit, _agm_pairs(*_fixed(a, -unit), *_fixed(b, -unit), dps)


def _numbers(values, what):
    """The values as mpc at the current precision; CurveError if mpc rejects
    one or a real or imaginary part is infinite or nan."""
    try:
        out = tuple(mpc(v) for v in values)
    except (TypeError, ValueError) as exc:
        raise CurveError(f"{what} must be numbers: {exc}")
    for v in out:
        if not mp.isfinite(v):
            raise CurveError(f"{what} must be finite numbers, got {mp.nstr(v)}")
    return out


def complex_agm(a, b):
    """Arithmetic-geometric mean over C with the optimal branch rule.

    At every step the square root sign is chosen so that
    |a_{n+1} - b_{n+1}| <= |a_{n+1} + b_{n+1}|, ties broken towards
    Im(b/a) > 0.  Converges quadratically away from b = -a.  Non-finite
    input and moduli more than 2^MAX_AGM_GAP apart raise CurveError.
    """
    a, b = _numbers((a, b), "AGM arguments")
    if a == 0 or b == 0:
        return mp.zero
    if abs(mp.mag(a) - mp.mag(b)) > MAX_AGM_GAP:  # guard bits of _agm_unit
        raise CurveError(f"AGM arguments more than 2^{MAX_AGM_GAP} apart in modulus")
    unit, pairs = _agm_sequence(a, b, mp.prec, mp.dps)
    ar, ai, br, bi = pairs[-1]
    return _unfixed(ar + br, ai + bi, unit - 1)  # (a_N + b_N)/2


def carlson_rf(x, y, z):
    """Carlson's symmetric elliptic integral R_F(x, y, z).

    Duplication theorem with principal square roots, finished with the
    standard fifth-order Taylor expansion around the equal-argument point.
    The curve's logarithm uses the AGM instead (``_agm_log``), which
    converges quadratically; R_F(x - e1, x - e2, x - e3) is the same
    logarithm up to sign and the lattice, an independent check of it.
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


def _nstr_ratio(ratios):
    """sqrt(max(num / den)) over the integer pairs (num, den), to 8 digits:
    the residual a failed check prints."""
    return mp.nstr(mp.sqrt(max(mpf(num) / den for num, den in ratios)), 8)


def lattice_invariants(w1, w2):
    """Weierstrass g2, g3 of the lattice Z w1 + Z w2 from the theta constants
    of an SL_2(Z)-reduced basis, where |q| <= exp(-pi sqrt 3 / 2).  The
    periods enter exactly (``_exact``), so parts far apart in size keep the
    smaller one, and every test reads those integers: the sign of the
    determinant Im(conj(w1) w2) orients the basis, a zero one means
    dependent periods, and the reduced basis bounds Im(tau).  Non-finite
    input, parts whose exponents span more than ``MAX_AGM_GAP`` + prec
    bits, as ``complex_agm`` bounds its moduli, dependent periods and a
    reduced Im(tau) above ``MAX_IM_TAU`` raise CurveError before the theta
    sums."""
    w1, w2 = _numbers((w1, w2), "lattice periods")
    prec, dps = mp.prec, mp.dps
    parts = [(e, e + bc) for w in (w1, w2) for _s, man, e, bc in w._mpc_ if man] or [(0, 0)]
    if max(top for _e, top in parts) - min(e for e, _top in parts) > MAX_AGM_GAP + prec:
        raise CurveError(f"lattice periods' parts more than 2^{MAX_AGM_GAP} apart in size")
    v1, v2, unit = _align(_exact(w1), _exact(w2))
    det = v1[0] * v2[1] - v1[1] * v2[0]
    if det == 0:
        raise CurveError("degenerate lattice: periods are R-linearly dependent")
    if det < 0:  # Im(w2 / w1) < 0
        v2 = -v2[0], -v2[1]
    r1, r2, _matrix = _reduce_basis(v1, v2, dps)
    # The reduced Im(tau) is the area over the shortest vector squared.
    if r1[0] * r2[1] - r1[1] * r2[0] > MAX_IM_TAU * _dist2(r1, _ZERO):
        raise CurveError(f"lattice too elongated: reduced Im(tau) above {MAX_IM_TAU}")
    t = 2 - _zmag((*r1, unit))  # |k| = pi / |r1| < 2^t
    *_rest, g2, g3 = _theta_lattice(r1, r2, unit, t, prec, dps)
    bits = prec + 16
    return _unfixed(*g2, 4 * t - bits), _unfixed(*g3, 6 * t - bits)


class Divisor(Frozen):
    """A formal sum of curve points with integer multiplicities."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: Sequence[tuple]):  # ((x, y) or None, multiplicity), ...
        # Coordinates are kept as given; they are coerced to mpc inside the
        # curve's working precision at evaluation time (converting here
        # would round them to the ambient precision).
        out = []
        for entry in entries:
            try:
                pt, mult = entry
                if pt is not None:
                    x, y = pt
                    pt = (x, y)
                out.append((pt, operator.index(mult)))
            except (TypeError, ValueError) as exc:
                raise CurveError(f"divisor entry {entry!r} must be ((x, y) or None, integer multiplicity): {exc}")
        object.__setattr__(self, "entries", tuple(out))

    # Kept because the benchmark still calls it; construct directly.
    of = classmethod(lambda cls, entries: cls(entries))

    @property
    def degree(self) -> int:
        return sum(m for _pt, m in self.entries)

    def __add__(self, other: "Divisor") -> "Divisor":
        return Divisor(self.entries + other.entries)


class EllipticCurve:
    """y^2 = 4x^3 - g2 x - g3 with its period lattice and elliptic logarithm.

    The working precision is ``digits`` plus guard digits.  When |disc|
    falls k orders of magnitude short of scale = max(|g2|^3, |g3|^2),
    differences of nearly equal roots lose about k/2 digits, and at points
    near the node the logarithm loses about k/2 more, since dz = dx / y
    there ((wp, wp') lose under one digit, measured for k up to 80).  The
    guard digits absorb k up to 20; beyond that the curve adds k - 20
    working digits.  The integer kernels take the working precision as
    arguments, ``_prec`` bits and ``_workdps`` digits, read once at set-up.
    """

    def __init__(self, g2, g3, digits: int = 40):
        if digits < 10:
            raise CurveError("working precision below 10 digits is not supported")
        if digits > MAX_DIGITS:
            raise CurveError(f"working precision above {MAX_DIGITS} digits is not supported")
        self.digits = int(digits)
        self._workdps = self.digits + _GUARD_DIGITS
        with mp.workdps(self._workdps):
            self.g2, self.g3 = _numbers((g2, g3), "curve coefficients")
            # g2 and g3 enter once, as integers in units their exponents set
            # (2^u bounds s), for disc and scale = max(|g2|^3, |g3|^2) = s^12,
            # squared like every modulus.  The curve's size s on the weights
            # of x and y: g2 ~ s^4, g3 ~ s^6, x ~ s^2, y ~ s^3.
            b0 = 2 * mp.prec + 20
            g, u, disc, (scale2, e) = _curve_scale(self.g2, self.g3, b0)
            self.discriminant = _unfixed(*disc)
            disc2 = _dist2(disc, _ZERO)  # in the unit of scale2, 2^e
            if disc2 * 10 ** (2 * self.digits) <= scale2:
                raise CurveError(f"singular curve: discriminant {self.discriminant} vanishes at working precision")
            if disc2 * 10 ** 40 < scale2:  # near-singular: k > 20
                self._workdps += int(mp.ceil(mp.log10(mpf(scale2) / disc2) / 2)) - 20
        with mp.workdps(self._workdps):
            prec = self._prec = mp.prec
            # Every modulus test compares integer squares (see _log): the
            # thresholds 10^-k enter as the integers 10^2k, the sizes s^k as
            # integers in the units of the numbers they bound.
            self._inv_tol2 = 10 ** (2 * self.digits - 6)  # 10^-(digits-3): results
            self._inv_res_tol2 = 10 ** (2 * self.digits - 4)  # 10^-(digits-2): on the curve
            self._inv_root_tol2 = 10 ** (2 * self.digits - 8)  # 10^-(digits-4): at a root
            self._ten_digits = 10 ** self.digits  # frac_coords
            bits = self._bits = prec + 16  # W
            t = self._t = -(-(scale2.bit_length() + e) // 24)  # s <= 2^t
            s12 = math.isqrt(_scale(scale2, e + 12 * bits - 24 * t))  # units 2^(12t - 6W)
            # s^4, s^6 and s^12 against |x|^2, |y|^2 and the on-curve sides squared.
            self._sizes = (_ccbrt(s12, 0)[0], math.isqrt(s12 >> (2 * bits)), s12)
            # g2 and g3 in units of 2^(4t - B) and 2^(6t - B), B = 2 prec + 20, for
            # Cardano (t <= u, and B >= b0 on a near-singular curve: exact
            # shifts), and truncated from there to 2^(4t - W) and 2^(6t - W).
            b = 2 * prec + 20
            g = [(re << k * (u - t) + b - b0, im << k * (u - t) + b - b0) for (re, im), k in zip(g, (4, 6))]
            self._g_fixed = tuple((_tshift(re, b - bits), _tshift(im, b - bits)) for re, im in g)
            # Beyond |x| = 10^(workdps/2) s^2, wp(z) = z^-2 (1 + g2 z^4/20 + ...)
            # gives z = x^(-1/2) at working precision: |x|^2 > s^4 10^workdps.
            self._far2 = self._sizes[0] * 10 ** self._workdps, 4 * t - 2 * bits
            self.w1, self.w2, self._walk = self._compute_periods(self._sorted_roots(*g, b))

    # -- lattice construction ---------------------------------------------------

    def _sorted_roots(self, g2, g3, b):
        """The roots of ``_cardano`` on the integers, sorted by (Re, Im)
        descending, as triples rounded once (``_round``): all real (each
        public root an mpc) when every imaginary part lies below 10^-digits
        of the largest root.  Real parts are compared in steps of that size,
        so rounding noise below it cannot reorder a conjugate pair and the
        period basis does not depend on the precision.  ``_roots_fixed``
        truncates them to units of 2^(2t - W), so a branch point given as a
        printed root is that root."""
        unit = 2 * self._t - b
        roots = _chop(_cardano(g2, g3, b), unit - 2 * self._t, self._prec)
        size2 = max(re * re + im * im for re, im in roots)
        ten = 10 ** self.digits
        real = all(im * im * ten * ten < size2 for _re, im in roots)
        if real:
            roots = [(re, 0) for re, _im in roots]
        step = math.isqrt(size2) // ten  # real parts this close tie, whatever the precision
        roots.sort(key=lambda r: (r[0] // step, r[1]), reverse=True)
        roots = [_round((*r, unit), self._prec) for r in roots]
        k = self._bits - 2 * self._t
        self._roots_fixed = [(_scale(re, exp + k), _scale(im, exp + k)) for re, im, exp in roots]
        self.roots = [_unfixed(*r) if real or r[1] else _unfixed(*r).real for r in roots]
        return roots

    def _compute_periods(self, roots):
        """Periods and the logarithm's AGM walk, checked by the reduced basis's
        theta constants; for each root the half period where wp takes it, and
        its fixed-point value and gap for ``_log``; the public w1 and w2."""
        prec, dps = self._prec, self._workdps
        *roots, unit = _align(*roots)
        w1, w2, walk = _periods(*roots, unit, prec, dps)
        # The basis, its reduction and their Cramer determinants as exact
        # integers, for the reductions of _wp_fixed and _reduce.
        v1, v2, unit = _align(_round(w1, prec), _round(w2, prec))
        if v2[1] * v1[0] < v2[0] * v1[1]:  # Im(w2 conj(w1)) < 0: Im(w2 / w1) < 0
            v2 = -v2[0], -v2[1]
        r1, r2, (a, b, c, d) = _reduce_basis(v1, v2, dps)
        self.tau = _unfixed(*_zdiv((*v2, unit), (*v1, unit), prec))
        self._reduced = _unfixed(*r1, unit), _unfixed(*r2, unit)
        self._basis = [(x, y, unit, x[0] * y[1] - x[1] * y[0]) for x, y in ((v1, v2), (r1, r2))]
        # |z| < 10^-(workdps-5) rho, rho = |r1|: a reduced basis starts with a shortest vector.
        self._pole = _dist2(r1, _ZERO), 10 ** (2 * dps - 10)
        bits, t = self._bits, self._t
        self._k, self._q4, self._big_l, k2, k3, theta_e, g2r, g3r = _theta_lattice(r1, r2, unit, t, prec, dps)
        # K2 R^2 and K3 R S (R and S with W + 4 fraction bits each) shift
        # right by these to the units of wp and wp'.
        (k2, m2), (k3, m3) = _zfix(k2, bits), _zfix(k3, bits)
        frac = 2 * (bits + 4)
        self._wp_constants = bits + 4, (k2, 2 * t - bits + m2 + frac), (k3, 3 * t - bits + m3 + frac), theta_e[2]
        # g2 and g3 have weights 4 and 6: measured on s^4 and s^6, in units
        # of 2^(8t - 2W) and 2^(12t - 2W).
        (g2f, g3f), (s4, _s6, s12) = self._g_fixed, self._sizes
        errs = (_dist2(g2r, g2f), s4 * s4 >> (2 * bits)), (_dist2(g3r, g3f), s12 >> (4 * bits))
        if any(num * self._inv_tol2 >= den for num, den in errs):
            raise CurveError(f"period lattice does not reproduce (g2, g3); residual {_nstr_ratio(errs)}")
        fixed = self._roots_fixed
        match = [min(range(3), key=lambda j: _dist2(r, theta_e[j])) for r in fixed]
        if sorted(match) != [0, 1, 2]:
            raise CurveError("half periods do not separate the branch points")
        # Twice the half periods where wp takes theta_e are r1, r1 + r2 and r2,
        # whose coordinates in (w1, w2) are the rows of the reduction matrix:
        # the half period is w1/2, w2/2 or (w1 + w2)/2, the sum rounded once.
        doubled = ((a, b), (a + c, b + d), (c, d))
        self._half_exact = []
        for j in match:
            m, n = (v % 2 for v in doubled[j])
            re, im, exp = _round((m * v1[0] + n * v2[0], m * v1[1] + n * v2[1], unit), prec)
            self._half_exact.append((re, im, exp - 1))
        # Each root's gap to the other two squared, in units of 2^(4t - 2W).
        self._gaps = [min(_dist2(r, fixed[i - 1]), _dist2(r, fixed[i - 2])) for i, r in enumerate(fixed)]
        return _unfixed(*v1, unit), _unfixed(*v2, unit), walk

    # -- lattice bookkeeping ------------------------------------------------------

    def coords(self, z) -> tuple:
        """Real coordinates (a, b) with z = a w1 + b w2."""
        with mp.workdps(self._workdps):
            na, nb, k = _cell_coords(_relative(mpc(z), self._prec), *self._basis[0])
            det, (prec, rnd) = self._basis[0][3], mp._prec_rounding
            return tuple(mp.make_mpf(mpf_shift(from_rational(n, det, prec, rnd), k)) for n in (na, nb))

    def frac_coords(self, z) -> tuple:
        """(a, b) mod 1, in [0, 1), with z = a w1 + b w2 (see ``_reduce``)."""
        with mp.workdps(self._workdps):
            return self._reduce(_relative(mpc(z), self._prec))[1:]

    def _reduce(self, z) -> tuple:
        """(z mod L, a, b) for a triple z, the one conversion out: z mod L
        = a w1 + b w2 with (a, b) mod 1 in [0, 1).  a and b are exact
        fractions of z's integers (``_cell_coords``), so a coordinate within
        10^-digits max(|a|, |b|) of an integer is that integer: guard-digit
        noise reads 0, not 1e-127 or 1 - 1e-127, while a small z keeps its
        small coordinates.  Each of z mod L, a and b is rounded once."""
        z, na, nb, den = _cell_reduce(z, self._basis[0], self._ten_digits, self._bits)
        prec, rnd = mp._prec_rounding
        return _unfixed(*z), *(mp.make_mpf(from_rational(n, den, prec, rnd)) for n in (na, nb))

    def lattice_distance(self, z) -> mpf:
        with mp.workdps(self._workdps):
            a, b = self.coords(z)
            zc = mpc(z) - mp.nint(a) * self.w1 - mp.nint(b) * self.w2
            return min(abs(zc - m * self.w1 - n * self.w2) for m in (-1, 0, 1) for n in (-1, 0, 1))

    # -- Weierstrass functions ------------------------------------------------------

    def wp_pair(self, z) -> tuple:
        """(wp(z), wp'(z)); z must avoid L.  The integers of ``_wp_fixed``,
        each rounded once."""
        with mp.workdps(self._workdps):
            (pr, pi), (qr, qi) = self._wp_fixed(_relative(mpc(z), self._prec))
            t, bits = self._t, self._bits
            return _unfixed(pr, pi, 2 * t - bits), _unfixed(qr, qi, 3 * t - bits)

    def _wp_fixed(self, z) -> tuple:
        """(wp(z), wp'(z)) of a triple z as integers (re, im) in units of
        2^(2t - W) and 2^(3t - W), 2^t the curve's size bound, as ``_log``
        reads them.

        With v = k z and the theta constants theta2, theta3, theta4 at 0
        (DLMF 23.6(i); wp' by theta1'(0) = theta2 theta3 theta4):
        wp = k^2 [(theta2 theta3 theta4(v) / theta1(v))^2 - (theta2^4 + theta3^4)/3],
        wp' = -2 k^3 (theta2 theta3 theta4)^2 theta2(v) theta3(v) theta4(v) / theta1(v)^3.
        So wp = K2 R^2 + e3 and wp' = K3 R S with the set-up constants
        K2 = (k theta2 theta3)^2 and K3 = -2 k (k theta2 theta3 theta4)^2 and
        the ratios R = theta4(v) / theta1(v), S = theta2(v) theta3(v) / theta1(v)^2,
        formed on the integer theta sums with W + 4 fraction bits.  K2
        and K3 are integers with W bits of their own (``_zfix``), so
        the products keep their relative accuracy however small |q| makes
        them; e3 is in the unit of wp.  Rounding to the unit of the result
        costs wp under 2^-W of s^2 and wp' under 2^-W of s^3, and where R or
        S is large the result keeps its relative accuracy.  Reducing z
        against (r1, r2), exactly on the integers, bounds |Im v| by
        L/2 = -2 log|q^(1/4)|.  A z with |z| < rho/4, rho = |r1|, has
        coordinates under 1/2 in the reduced basis and is not reduced.
        """
        basis, (n1, ten2) = self._basis[1], self._pole
        unit = basis[2]
        if not _less(16 * _dist2(z, _ZERO), 2 * z[2], n1, 2 * unit):
            z = _cell_nearest(z, basis)
        if _less(_dist2(z, _ZERO) * ten2, 2 * z[2], n1, 2 * unit):  # |z| < 10^-(workdps-5) rho
            raise CurveError("wp evaluated at a lattice point")
        thetas, _exp = _theta_sums(self._q4, self._big_l, _zmul(self._k, z), self._prec, self._workdps)
        return _wp_thetas(thetas, *self._wp_constants)

    # -- point and divisor utilities ---------------------------------------------

    def _fixed_point(self, x, y) -> tuple:
        """(t, X, Y) of parsed coordinates: 2^t bounds s, |x|^(1/2) and
        |y|^(1/3), and X, Y are x and y as integers (re, im) in units of
        2^(2t - W) and 2^(3t - W), so each carries W bits below its weight's
        size."""
        bits, t = self._bits, self._t
        for v, k in ((x, 2), (y, 3)):
            if v:
                t = max(t, -(-_mag(v) // k))
        return t, _fixed(x, bits - 2 * t), _fixed(y, bits - 3 * t)

    def _require_on_curve(self, x, y) -> tuple:
        """``_fixed_point`` after the on-curve check, exact on its integers:
        |y^2 - (4x^3 - g2 x - g3)|^2 against 10^-2(digits-2) times the largest
        of |y^2|^2, |4x^3 - g2 x - g3|^2 and s^12 (both sides have weight 6),
        all in units of 2^(12t - 6W)."""
        t, big_x, big_y = self._fixed_point(x, y)
        num, den = _residual2(big_x, big_y, self._g_fixed, self._sizes[2], t - self._t, self._bits)
        if num * self._inv_res_tol2 > den:
            raise CurveError(f"point is not on the curve: residual {_nstr_ratio([(num, den)])}")
        return t, big_x, big_y

    def point_at(self, z) -> Point:
        """Forward parametrization z -> (wp(z), wp'(z))."""
        return self.wp_pair(z)

    # -- elliptic logarithm -----------------------------------------------------------

    def _log(self, pt):
        """z with (wp(z), wp'(z)) = P, not reduced mod L, as a triple of
        integers.  Runs at the working precision.

        With e_i the root nearest x: a branch point (y = 0 exactly, x within
        10^-(digits-4) max(|x|, s^2) of e_i) maps to its half period w_i,
        exactly the stored triple.
        Within a quarter of e_i's gap, x has lost to rounding what y keeps
        (dz = dx / y), so d = x - e_i = y^2 / (4 (x - e_j)(x - e_k)) and
        z = log(P + T_i) + w_i, where P + T_i has x' = e_i + (e_i - e_j)
        (e_i - e_k) / d and lies near O.  The logarithm of x is x^(-1/2)
        beyond |x| = 10^(workdps/2) s^2, where the AGM walk would run on
        integers of about log2|x| bits, else ``_agm_log``.  z is signed so
        that Re(wp'(z) conj(y)) >= 0, and (wp, wp') at z must reproduce x to
        10^-(digits-3) max(|x|, s^2) and y to 10^-(digits-3) max(|y|, s^3).
        """
        x, y = _numbers(pt, "point coordinates")
        t, big_x, big_y = self._require_on_curve(x, y)
        # Squares in units of 2^(4t - 2W) for x and 2^(6t - 2W) for y
        # (_fixed_point); the curve's integers, in its own t, shift by dt.
        bits, prec, dt = self._bits, self._prec, t - self._t
        s4, s6, _s12 = (v >> k * dt for k, v in zip((4, 6, 12), self._sizes))
        roots = [(_tshift(r, 2 * dt), _tshift(i, 2 * dt)) for r, i in self._roots_fixed]
        dist2 = [_dist2(big_x, r) for r in roots]
        i = min(range(3), key=dist2.__getitem__)
        size_x2 = max(_dist2(big_x, _ZERO), s4)
        if not y and dist2[i] * self._inv_root_tol2 <= size_x2:
            return self._half_exact[i]
        unit = 2 * t - bits  # of x and the roots
        if y and 16 * dist2[i] < self._gaps[i] >> 4 * dt:
            x_log = _translate(big_x, roots[i], roots[i - 1], roots[i - 2], _relative(y, prec), unit, prec)
            shift = self._half_exact[i]
        else:
            x_log, shift = (*big_x, unit), None
        if _less(*self._far2, _dist2(x_log, _ZERO), 2 * x_log[2]):
            z = _zdiv((1, 0, 0), _zsqrt(x_log, prec), prec)
        else:
            z = _agm_log(self._walk, *(_zadd(x_log, (*roots[j], unit), prec, -1) for j in (2, 1)), prec)
        if shift:
            z = _zadd(z, shift, prec)
        big_p, (ppr, ppi) = ([v >> k * dt for v in w] for k, w in zip((2, 3), self._wp_fixed(z)))
        if ppr * big_y[0] + ppi * big_y[1] < 0:  # |pp - y| > |pp + y|: Re(pp conj(y)) < 0
            z, ppr, ppi = (-z[0], -z[1], z[2]), -ppr, -ppi
        size_y2 = max(_dist2(big_y, _ZERO), s6)
        misses = (_dist2(big_p, big_x), size_x2), (_dist2((ppr, ppi), big_y), size_y2)
        if any(num * self._inv_tol2 > den for num, den in misses):
            # Where |y|^2 << s^6 the on-curve check lets through a y that is
            # off the curve in this check's units: name it, not a miss.
            yr, yi = _fixed(mp.sqrt(4 * x ** 3 - self.g2 * x - self.g3), bits - 3 * t)
            off = min(_dist2(big_y, (yr, yi)), _dist2(big_y, (-yr, -yi)))
            if off * self._inv_tol2 > size_y2:
                raise CurveError(f"point is not on the curve: residual {_nstr_ratio([(off, size_y2)])}")
            raise CurveError(f"elliptic logarithm misses the point: residual {_nstr_ratio(misses)}")
        return z

    def elliptic_log(self, pt: Point):
        """z with wp(z) = x(P), wp'(z) = y(P), reduced to the fundamental cell:
        ``aj`` of [P] - [O], so a branch point gives its half period and
        None gives 0 (see ``_log``).

        z is about 1/sqrt(x) far from the origin, so a point with |x| beyond
        about 10^(2 (workdps - 5)) / rho^2 lies within the pole's tolerance
        and raises "wp evaluated at a lattice point" (at 40 digits x = 1e100
        is fine, x = 1e300 is not).
        """
        return self.aj(Divisor([(pt, 1), (None, -1)]))

    # -- Abel-Jacobi ------------------------------------------------------------------

    def _aj_sum(self, divisor: Divisor):
        """The sum of m z(P) over the unreduced logarithms z(P) of ``_log``,
        a triple of integers.  Runs at the working precision."""
        if divisor.degree != 0:
            raise CurveError(f"divisor has degree {divisor.degree}, expected 0")
        total = 0, 0, 0
        for pt, mult in divisor.entries:
            if mult and pt is not None:
                total = _zadd(total, self._log(pt), self._prec, mult)
        return total

    def aj(self, divisor: Divisor):
        """Abel-Jacobi value of a degree-zero divisor in C/L (fundamental cell):
        the sum of m z(P) over the unreduced logarithms z(P) of ``_log``,
        reduced once."""
        return self._aj_coords(divisor)[0]

    def _aj_coords(self, divisor: Divisor) -> tuple:
        """(z, a, b): the value of ``aj`` and its coordinates (a, b) mod 1,
        z = a w1 + b w2, from one reduction (``_reduce``)."""
        with mp.workdps(self._workdps):
            return self._reduce(self._aj_sum(divisor))
