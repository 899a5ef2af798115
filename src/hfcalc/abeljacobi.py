"""Numerical Abel-Jacobi map for elliptic curves.

Everything works on the Weierstrass model y^2 = 4x^3 - g2 x - g3 over C.
The period lattice L = Z w1 + Z w2 realizes the Jacobian J^1 = C/L, the
elliptic logarithm inverts the parametrization z -> (wp(z), wp'(z)), and
the Abel-Jacobi map sends a degree-zero divisor to the sum of the
unreduced logarithms of its points, reduced into the fundamental cell once.
Every modulus test compares squared moduli, as in |a - b|^2 - |a + b|^2 =
-4 Re(a conj(b)), and the curve's checks do so on Python integers: with
2^t a bound on the curve's size s = max(|g2|^(1/4), |g3|^(1/6)) (and on
|x|^(1/2), |y|^(1/3) of the point at hand), a number of weight k is an
integer in units of 2^(k t - W), W = prec + 16 bits, and a threshold
10^-k enters as the integer 10^2k.  A square root is taken only to print a
failing residual.  A divisor whose only point other than O is a branch
point, with multiplicity 1, maps to that point's stored half period with
no reduction, as its elliptic logarithm does.

Numerical scheme (all at a configurable working precision, default 40
decimal digits, at most MAX_DIGITS, plus internal guard digits; near-singular
curves get more, see ``EllipticCurve``):

* roots of 4x^3 - g2 x - g3 by Cardano's formula (DLMF 1.11(iii)) at twice
  the working precision, on integers: ``_csqrt`` for its square root and
  Newton's iteration for its cube root (``_ccbrt``) are its only loops; the
  square roots of the period step are ``_csqrt`` too (``_sqrt``);
* periods by the arithmetic-geometric mean over C with the optimal-branch
  rule (|a - b| <= |a + b| at every step, tested without square roots as
  Re(a conj(b)) >= 0), after Cremona-Thongjunthug
  (J. Number Theory 133, 2013): with the roots sorted e1, e2, e3, take
  a = sqrt(e1 - e3), b = sqrt(e1 - e2), c = sqrt(e2 - e3), negate b or c
  when that brings it closer to a, and set w1 = pi / M(a, b),
  w2 = pi i / M(a, c).  The AGM runs in fixed point on Python integers
  (``_agm_sequence``), each part of a_n and b_n one integer in units of
  2^(e - wp), e = max(mag a, mag b), with wp = prec + 30 + |mag a - mag b|
  bits so that the smaller of a and b keeps its relative accuracy; square
  roots are ``math.isqrt``, conversion and halving truncate towards 0, so a
  conjugate pair steps to exactly real pairs, and the sign test and the stop
  rule are exact integer comparisons.  The SL_2(Z) reduction of the basis
  tracks its integer matrix, whose rows give the coordinates of the reduced
  basis in (w1, w2) and so the half period of each root with no solve.
  The theta constants of the reduced basis, computed once by their own
  sum at v = 0 (``_theta_constants``), give e1, e2, e3, g2 and g3 of the
  lattice as integers, with k^2/3 the one number converted in; g2 and g3
  must reproduce the inputs to 10^-(digits-3) s^4 and s^6: g2 and g3 have
  weights 4 and 6, so the check, like the singular-curve test, reads the
  same on (l^4 g2, l^6 g3) for every scale l;
* elliptic logarithm from the same AGM (Cremona-Thongjunthug): the curve
  keeps d_n = a_n^2 - b_n^2, n = 1..N, of the pairs of M(a, b), N >= 1 the
  first index with |a_N - b_N| <= 10^-(dps-3) |a_N|, and the mean
  M = (a_N + b_N)/2, and every logarithm walks them: from c = sqrt(x - e3),
  c <- (c + s)/2 with s the root of c^2 - a_n^2 + b_n^2 nearer c, per pair,
  then z = asin(M / c) / M.  Every step runs on integers in the AGM's
  units; the step of pair 0 (``_log_start``) takes s = sqrt(x - e2), the
  same number by exact algebra, by ``_csqrt`` of x - e3 and x - e2, so a
  real point on a real curve with e2 = conj(e3) gets a c with an exact 0
  part.  Only x - e3, x - e2 and the final c cross between mpc and
  integers.  Before the walk, the point's on-curve residual (exact on its
  integer coordinates), the nearest root and the branch-point and
  half-period tests run on integers, as do, after it, the sign of wp'(z)
  and the miss check: z is signed so that wp'(z) = y, and one
  evaluation of (wp, wp') at z must reproduce the point to 10^-(digits-3)
  of max(|x|, s^2) and max(|y|, s^3), x and y having weights 2 and 3.  A
  branch point (e_i, 0), y = 0 exactly, maps to its half period w1/2, w2/2
  or (w1 + w2)/2 without a logarithm: at set-up each root is matched to the
  nearest of the theta values of wp at the reduced basis's half periods
  (DLMF 23.6(i)), a match that must be one to one.  Near a half period w_i
  (x within a quarter of e_i's gap to the other roots), x - e_i comes from
  y, and the logarithm is that of P + T_i, near O, plus w_i;
* wp and wp' from Jacobi theta functions on the same reduced basis (DLMF
  23.6(i)), about sqrt(digits) terms per evaluation and no table.  The
  theta sums run in fixed point on Python integers, with guard bits that
  follow from the terms' size bound (``_theta_sums``); the term count needs
  L = -4 log|q^(1/4)| = pi Im(tau), stored at set-up.  wp and wp' take the
  ratios R = theta4/theta1 and S = theta2 theta3/theta1^2 on those
  integers and finish there as wp = K2 R^2 + e3, wp' = K3 R S with K2, K3
  and e3 stored at set-up as integers (``_wp_fixed``); ``wp_pair`` rounds
  each once.

Real curves with positive discriminant come out in the rectangular
normalization (w1 real, w2 purely imaginary); in all cases Im(w2/w1) > 0.
"""

from __future__ import annotations

import math
import operator
from typing import Optional, Sequence

from mpmath import mp, mpc, mpf
from mpmath.libmp import fzero, mpf_add, mpf_mul

from hfcalc._fixedpoint import (
    _ZERO,
    _agm_mean,
    _agm_sequence,
    _cmul,
    _ccbrt,
    _csqrt,
    _dist2,
    _fixed,
    _fixed_rel,
    _half,
    _mag,
    _sqrt,
    _tdiv,
    _theta_constants,
    _theta_sums,
    _unfixed,
)
from hfcalc._frozen import Frozen
from hfcalc.errors import CurveError

__all__ = ["EllipticCurve", "Divisor", "lattice_invariants", "complex_agm", "carlson_rf"]

_GUARD_DIGITS = 25
MAX_DIGITS = 1000  # curve set-up: about 0.01 s at 400 digits, 0.05 s at 800

Point = Optional[tuple]  # (x, y) affine, or None for the point at infinity


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


def _nearer(a, b):
    """b or -b, whichever lies closer to a (b on a tie).  |a - b|^2 - |a + b|^2
    = -4 Re(a conj(b)), so the sign test needs no square root."""
    return -b if a.real * b.real + a.imag * b.imag < 0 else b


def _abs2(z):
    """|z|^2 of an mpf or mpc, rounded once: a modulus test without a square root."""
    re, im = z._mpc_ if hasattr(z, "_mpc_") else (z._mpf_, fzero)
    return mp.make_mpf(mpf_add(mpf_mul(re, re), mpf_mul(im, im), *mp._prec_rounding))


def complex_agm(a, b):
    """Arithmetic-geometric mean over C with the optimal branch rule.

    At every step the square root sign is chosen so that
    |a_{n+1} - b_{n+1}| <= |a_{n+1} + b_{n+1}|, ties broken towards
    Im(b/a) > 0.  Converges quadratically away from b = -a.
    """
    a, b = mpc(a), mpc(b)
    if a == 0 or b == 0:
        return mp.zero
    unit, pairs = _agm_sequence(a, b)
    return _agm_mean(unit, pairs[-1])


def _log_walk(unit, pairs):
    """What the elliptic logarithm keeps of the AGM ``pairs``: unit,
    d_n = a_n^2 - b_n^2 for n = 1..N in units of 2^(2 unit), and the mean M."""
    ds = [(ar * ar - ai * ai - br * br + bi * bi, 2 * (ar * ai - br * bi)) for ar, ai, br, bi in pairs[1:]]
    return unit, ds, _agm_mean(unit, pairs[-1])


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


def _reduce_tau(w1, w2):
    """SL_2(Z)-reduce the basis so tau = w2/w1 is in the fundamental domain:
    (r1, r2, (a, b, c, d)) with r1 = a w1 + b w2, r2 = c w1 + d w2 and
    ad - bc = 1, the integers tracked through the steps."""
    inside2 = (1 - mpf(10) ** (-mp.dps)) ** 2  # |tau| < 1 - 10^-dps, squared
    a, b, c, d = 1, 0, 0, 1
    for _ in range(10000):
        tau = w2 / w1
        shift = int(mp.nint(tau.real))
        if shift != 0:
            w2 = w2 - shift * w1
            c, d = c - shift * a, d - shift * b
            tau = w2 / w1
        if _abs2(tau) < inside2:
            w1, w2 = w2, -w1
            a, b, c, d = c, d, -a, -b
            continue
        return w1, w2, (a, b, c, d)
    raise CurveError("lattice basis reduction failed")


def _nstr_ratio(ratios):
    """sqrt(max(num / den)) over the integer pairs (num, den), to 8 digits:
    the residual a failed check prints."""
    return mp.nstr(mp.sqrt(max(mpf(num) / den for num, den in ratios)), 8)


def _theta_lattice(r1, r2, t):
    """For a reduced basis: k = pi / r1, q^(1/4) = exp(i pi tau / 4) with
    tau = r2 / r1, L = -4 log|q^(1/4)| = pi Im(tau) as a float, the
    constants K2 = (k theta2 theta3)^2 and K3 = -2 k (k theta2 theta3 theta4)^2
    of ``_wp_fixed`` with the theta constants at 0, and
    (e1, e2, e3) = wp at (r1/2, (r1 + r2)/2, r2/2), g2 and g3 as integers
    (re, im) in units of 2^(2t - W), 2^(4t - W) and 2^(6t - W),
    W = ``_bits()``, 2^t a size of the lattice's weight 1.

    wp takes e1 = k^2 (theta3^4 + theta4^4)/3, e2 = k^2 (theta2^4 - theta4^4)/3
    and e3 = -k^2 (theta2^4 + theta3^4)/3 at those half periods (DLMF 23.6(i)),
    so g2 = 2 (e1^2 + e2^2 + e3^2) and g3 = 4 e1 e2 e3.  The fourth powers
    and their sums are exact integers; k^2/3 is the one number converted in,
    and the e_i are rounded once to their unit.
    """
    k, tau = mp.pi / r1, r2 / r1
    q4, big_l = mp.expj(mp.pi * tau / 4), float(mp.pi * tau.imag)
    (t2, t3, t4), wp = _theta_constants(q4, big_l)
    k2, t23 = k * k, _cmul(t2, t3)
    c2 = _cmul(t23, t23)  # (theta2 theta3)^2 in units of 2^(-4 wp)
    big_k2 = k2 * _unfixed(*c2, -4 * wp)
    big_k3 = -2 * k * k2 * _unfixed(*_cmul(c2, _cmul(t4, t4)), -6 * wp)
    p2, p3, p4 = (_cmul(_cmul(x, x), _cmul(x, x)) for x in (t2, t3, t4))
    # e_i = (k^2/3) E_i 2^(-4 wp), with k^2/3 in units of 2^(2t - W).
    bits = _bits()
    s = _fixed(k2 / 3, bits - 2 * t)
    sums = [a + b for a, b in zip(p3, p4)], [a - b for a, b in zip(p2, p4)], [-a - b for a, b in zip(p2, p3)]
    e = [_cmul(s, v, 4 * wp) for v in sums]
    g2 = [2 * (a + b + c) >> bits for a, b, c in zip(*(_cmul(v, v) for v in e))]  # units 2^(4t - W)
    g3 = [4 * v >> 2 * bits for v in _cmul(_cmul(e[0], e[1]), e[2])]  # units 2^(6t - W)
    return k, q4, big_l, big_k2, big_k3, e, g2, g3


def _bits():
    """W, the fraction bits of the integer checks at the current precision."""
    return mp.prec + 16


def lattice_invariants(w1, w2):
    """Weierstrass g2, g3 of the lattice Z w1 + Z w2 from the theta constants
    of an SL_2(Z)-reduced basis, where |q| <= exp(-pi sqrt 3 / 2)."""
    w1, w2 = mpc(w1), mpc(w2)
    if mp.im(w2 / w1) < 0:
        w2 = -w2
    if mp.im(w2 / w1) == 0:
        raise CurveError("degenerate lattice: periods are R-linearly dependent")
    r1, r2, _matrix = _reduce_tau(w1, w2)
    t = 2 - _mag(r1)  # |k| = pi / |r1| < 2^t
    *_rest, g2, g3 = _theta_lattice(r1, r2, t)
    bits = _bits()
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


def _dual(w1, w2):
    """The rows of the inverse of the real 2x2 matrix of the basis (w1, w2),
    so that ``_coords`` solves with four products and no division."""
    inv = 1 / (w1.real * w2.imag - w1.imag * w2.real)
    return w2.imag * inv, -w2.real * inv, -w1.imag * inv, w1.real * inv


def _coords(z, dual):
    """Real coordinates (a, b) with z = a w1 + b w2, ``dual`` = ``_dual(w1, w2)``."""
    ar, ai, br, bi = dual
    return z.real * ar + z.imag * ai, z.real * br + z.imag * bi


def _cubic_roots(g2, g3, t):
    """The roots of 4x^3 - g2 x - g3 by Cardano's formula (DLMF 1.11(iii)),
    2^t a bound on the curve's size s.

    x = u + g2 / (12 u) over the three cube roots u of
    v = (g3 +- sqrt(g3^2 - g2^3/27)) / 8, with the sign of larger modulus
    (|a + b| >= |a - b| exactly when Re(a conj(b)) >= 0, as in ``_nearer``;
    u = 0 only if g2 = g3 = 0).  With omega = exp(2 pi i / 3) and
    q = g2 / (12 u), g2 / (12 u omega) = q conj(omega), so one division
    serves all three.  Near a double root the roots differ by about
    sqrt(disc), so B = 2 prec + 20 bits, twice the working precision, keep
    every working digit while |disc| / scale >= 10^-digits.

    Everything runs on integers, a weight-k number in units of 2^(k t - B):
    g2^3 and 27 g3^2 exactly, the square root by ``_csqrt``, the cube root
    by ``_ccbrt`` and every product and quotient truncated towards 0, so real
    g2, g3 with one real root give it exactly real and the other two exactly
    conjugate.  Each root is rounded once to working precision, where parts
    below eps are chopped as ``polyroots`` chops them: a real root comes out
    an mpf.
    """
    b = 2 * mp.prec + 20
    (g2r, g2i), (g3r, g3i) = _fixed(g2, b - 4 * t), _fixed(g3, b - 6 * t)
    # 1728 (g3^2/64 - g2^3/1728) = 27 g3^2 - g2^3 in units of 2^(12t - 3B);
    # the square root of its 1728th in units of 2^(6t - B - 10), and g3/8 there.
    c2r, c2i = g2r * g2r - g2i * g2i, 2 * g2r * g2i
    nr = (27 * (g3r * g3r - g3i * g3i) << b) - (c2r * g2r - c2i * g2i)
    ni = (27 * 2 * g3r * g3i << b) - (c2r * g2i + c2i * g2r)
    sr, si = _csqrt(_tdiv(nr, 1728 << b - 20), _tdiv(ni, 1728 << b - 20))
    tr, ti = g3r << 7, g3i << 7
    if tr * sr + ti * si < 0:
        sr, si = -sr, -si
    # v = g3/8 + s, in units of 2^(6t - 3B) for a root in units of 2^(2t - B).
    ur, ui = _ccbrt(tr + sr << 2 * b - 10, ti + si << 2 * b - 10)
    # q = g2 / (12 u) = (g2 << B) conj(u) / (12 |u|^2), units 2^(2t - B).
    den = 12 * (ur * ur + ui * ui)
    qr, qi = _tdiv((g2r * ur + g2i * ui) << b, den), _tdiv((g2i * ur - g2r * ui) << b, den)
    # omega in units of 2^-B: (-1/2, sqrt(3)/2).
    wr, wi = -(1 << b - 1), math.isqrt(3 << 2 * b) >> 1
    roots = (
        (ur + qr, ui + qi),
        (_tdiv(ur * wr - ui * wi + qr * wr + qi * wi, 1 << b), _tdiv(ur * wi + ui * wr - qr * wi + qi * wr, 1 << b)),
        (_tdiv(ur * wr + ui * wi + qr * wr - qi * wi, 1 << b), _tdiv(ui * wr - ur * wi + qr * wi + qi * wr, 1 << b)),
    )
    out, eps = [], mp.eps
    eps2 = eps * eps
    for re, im in roots:
        r = _unfixed(re, im, 2 * t - b)
        if _abs2(r) < eps2:
            r = mp.zero
        elif abs(r.imag) < eps:
            r = r.real
        elif abs(r.real) < eps:
            r = r.imag * 1j
        out.append(r)
    return out


def _period_basis(e1, e2, e3):
    """Cremona-Thongjunthug periods (w1, w2) of the roots in this order, and
    the ``_log_walk`` of the AGM of (a, b) whose mean M gives w1 = pi / M."""
    a = _sqrt(e1 - e3)
    b, c = _nearer(a, _sqrt(e1 - e2)), _nearer(a, _sqrt(e2 - e3))
    walk = _log_walk(*_agm_sequence(a, b))
    w1 = mp.pi / walk[2]  # the mean M
    w2 = mp.pi * 1j / complex_agm(a, c)
    if w2.imag * w1.real < w2.real * w1.imag:  # Im(w2 conj(w1)) < 0: Im(w2 / w1) < 0
        w2 = -w2
    return w1, w2, walk


def _log_start(unit, e2, e3, x):
    """c after the step of pair 0 of the logarithm walk, as integers in
    units of 2^unit: (sqrt(x - e3) + sqrt(x - e2))/2, the second root taken
    nearer the first.  That is c <- (c + sqrt(c^2 - a_0^2 + b_0^2))/2 from
    c = sqrt(x - e3) by exact algebra, (x - e3) - (e1 - e3) + (e1 - e2) =
    x - e2, so the difference of nearly equal roots is never formed.

    x - e3 and x - e2 convert to units of 2^(2 unit) and take ``_csqrt``;
    rounding is absolute in the AGM's unit, and truncation and ``_csqrt``
    are conjugate-symmetric, so a real x on a real curve with
    e2 = conj(e3) gives c an exact 0 part."""
    cr, ci = _csqrt(*_fixed(x - e3, -2 * unit))
    sr, si = _csqrt(*_fixed(x - e2, -2 * unit))
    if cr * sr + ci * si < 0:  # the root nearer c, as in _nearer
        sr, si = -sr, -si
    return _half(cr + sr), _half(ci + si)


def _agm_log(walk, e2, e3, x):
    """Cremona-Thongjunthug elliptic logarithm: z with wp(z) = x, up to sign
    and the lattice.  ``walk`` comes from ``_period_basis`` of the roots
    e1, e2, e3: c starts at sqrt(x - e3) and takes one step
    c <- (c + sqrt(c^2 - d_n))/2, the root nearer c, per pair, on integers
    in the AGM's units (pair 0 by ``_log_start``)."""
    unit, ds, m = walk
    cr, ci = _log_start(unit, e2, e3, x)
    for dr, di in ds:
        sr, si = _csqrt(cr * cr - ci * ci - dr, 2 * cr * ci - di)
        if cr * sr + ci * si < 0:  # the root nearer c, as in _nearer
            sr, si = -sr, -si
        cr, ci = _half(cr + sr), _half(ci + si)
    u = m / _unfixed(cr, ci, unit)
    # asin's error is absolute (about 10^-dps), so a small u (a point with
    # large |x|) needs -mag(u) more bits to keep its relative accuracy.
    with mp.extraprec(max(0, -mp.mag(u))):
        s = mp.asin(u)
    return s / m


class EllipticCurve:
    """y^2 = 4x^3 - g2 x - g3 with its period lattice and elliptic logarithm.

    The working precision is ``digits`` plus guard digits.  When |disc|
    falls k orders of magnitude short of scale = max(|g2|^3, |g3|^2),
    differences of nearly equal roots lose about k/2 digits, and at points
    near the node the logarithm loses about k/2 more, since dz = dx / y
    there ((wp, wp') lose under one digit, measured for k up to 80).  The
    guard digits absorb k up to 20; beyond that the curve adds k - 20
    working digits.
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
            disc = self.g2 ** 3 - 27 * self.g3 ** 2
            # scale = max(|g2|^3, |g3|^2) = s^12, squared like every modulus.
            # The curve's size s on the weights of x and y: g2 ~ s^4,
            # g3 ~ s^6, x ~ s^2, y ~ s^3.
            disc2, scale2 = _abs2(disc), max(_abs2(self.g2) ** 3, _abs2(self.g3) ** 2)
            if disc2 * 10 ** (2 * self.digits) <= scale2:
                raise CurveError(f"singular curve: discriminant {disc} vanishes at working precision")
            self.discriminant = disc
            if disc2 * 10 ** 40 < scale2:  # near-singular: k > 20
                self._workdps += int(mp.ceil(-mp.log10(disc2 / scale2) / 2)) - 20
        with mp.workdps(self._workdps):
            # Every modulus test compares integer squares (see _log): the
            # thresholds 10^-k enter as the integers 10^2k, the sizes s^k as
            # integers in the units of the numbers they bound.
            self._inv_tol2 = 10 ** (2 * self.digits - 6)  # 10^-(digits-3): results
            self._inv_res_tol2 = 10 ** (2 * self.digits - 4)  # 10^-(digits-2): on the curve
            self._inv_root_tol2 = 10 ** (2 * self.digits - 8)  # 10^-(digits-4): at a root
            self._snap = mpf(10) ** -self.digits  # frac_coords
            bits = self._bits = _bits()
            t = self._t = -(-_mag(scale2) // 24)  # s <= 2^t
            s12 = math.isqrt(_fixed(scale2, 12 * bits - 24 * t)[0])  # units 2^(12t - 6W)
            s4 = mp.cbrt(mp.sqrt(scale2))
            # s^4, s^6 and s^12 against |x|^2, |y|^2 and the on-curve sides squared.
            self._sizes = (_fixed(s4, 2 * bits - 4 * t)[0], math.isqrt(s12 >> (2 * bits)), s12)
            self._g_fixed = _fixed(self.g2, bits - 4 * t), _fixed(self.g3, bits - 6 * t)
            # Beyond |x| = 10^(workdps/2) s^2, wp(z) = z^-2 (1 + g2 z^4/20 + ...)
            # gives z = x^(-1/2) at working precision.
            self._far2 = s4 * 10 ** self._workdps
            self.roots = self._sorted_roots()
            self.w1, self.w2, self._walk = self._compute_periods()
            self._dual, self._dual_reduced = _dual(self.w1, self.w2), _dual(*self._reduced)
            self.tau = self.w2 / self.w1
            # |z| < 10^-(workdps-5) rho, rho = |r1|: a reduced basis starts with a shortest vector.
            self._pole2 = _abs2(self._reduced[0]) * mpf(10) ** (10 - 2 * self._workdps)

    # -- lattice construction ---------------------------------------------------

    def _sorted_roots(self):
        roots = _cubic_roots(self.g2, self.g3, self._t)
        size2 = max(_abs2(r) for r in roots)
        tens = mpf(10 ** (2 * self.digits))
        if all(r.imag ** 2 * tens < size2 for r in roots):
            roots = [mpc(r.real) for r in roots]
        return sorted(roots, key=lambda r: (r.real, r.imag), reverse=True)

    def _compute_periods(self):
        """Periods and the logarithm's AGM walk, checked by the reduced basis's
        theta constants; for each root the half period where wp takes it, and
        its fixed-point value and gap for ``_log``."""
        w1, w2, walk = _period_basis(*self.roots)
        r1, r2, (a, b, c, d) = _reduce_tau(w1, w2)
        self._reduced = r1, r2
        bits, t = self._bits, self._t
        self._k, self._q4, self._big_l, k2, k3, theta_e, g2r, g3r = _theta_lattice(r1, r2, t)
        # K2 R^2 and K3 R S (R and S with W + 4 fraction bits each) shift
        # right by these to the units of wp and wp'.
        (k2, m2), (k3, m3) = _fixed_rel(k2, bits), _fixed_rel(k3, bits)
        frac = 2 * (bits + 4)
        self._wp_constants = (k2, 2 * t - bits + m2 + frac), (k3, 3 * t - bits + m3 + frac), theta_e[2]
        # g2 and g3 have weights 4 and 6: measured on s^4 and s^6, in units
        # of 2^(8t - 2W) and 2^(12t - 2W).
        (g2f, g3f), (s4, _s6, s12) = self._g_fixed, self._sizes
        errs = (_dist2(g2r, g2f), s4 * s4 >> (2 * bits)), (_dist2(g3r, g3f), s12 >> (4 * bits))
        if any(num * self._inv_tol2 >= den for num, den in errs):
            raise CurveError(f"period lattice does not reproduce (g2, g3); residual {_nstr_ratio(errs)}")
        fixed = [_fixed(r, bits - 2 * t) for r in self.roots]
        match = [min(range(3), key=lambda j: _dist2(r, theta_e[j])) for r in fixed]
        if sorted(match) != [0, 1, 2]:
            raise CurveError("half periods do not separate the branch points")
        # Twice the half periods where wp takes theta_e are r1, r1 + r2 and r2,
        # whose coordinates in (w1, w2) are the rows of the reduction matrix.
        doubled = ((a, b), (a + c, b + d), (c, d))
        self._half_periods = []
        for j in match:
            m, n = (v % 2 for v in doubled[j])
            # Exact: w1/2, w2/2 or (w1 + w2)/2.
            self._half_periods.append(((w1 if m else 0) + (w2 if n else 0)) * mpf(0.5))
        # Each root in units of 2^(2t - W), and its gap to the other two squared.
        self._roots_fixed = fixed
        self._gaps = [min(_dist2(r, fixed[i - 1]), _dist2(r, fixed[i - 2])) for i, r in enumerate(fixed)]
        return w1, w2, walk

    # -- lattice bookkeeping ------------------------------------------------------

    def coords(self, z) -> tuple:
        """Real coordinates (a, b) with z = a w1 + b w2."""
        with mp.workdps(self._workdps):
            return _coords(mpc(z), self._dual)

    def reduce_fundamental(self, z):
        """Representative with z = a w1 + b w2, a, b in [0, 1)."""
        with mp.workdps(self._workdps):
            a, b = self.frac_coords(z)
            return a * self.w1 + b * self.w2

    def frac_coords(self, z) -> tuple:
        """(a, b) mod 1, in [0, 1), with z = a w1 + b w2.  Solving for a and b
        rounds relative to the larger of them, so a coordinate within
        10^-digits max(|a|, |b|) of an integer is that integer: guard-digit
        noise reads 0, not 1e-127 or 1 - 1e-127, while a small z keeps its
        small coordinates."""
        with mp.workdps(self._workdps):
            a, b = self.coords(z)
            tol = self._snap * max(abs(a), abs(b))
            return tuple(mp.zero if abs(c - mp.nint(c)) <= tol else c - mp.floor(c) for c in (a, b))

    def lattice_distance(self, z) -> mpf:
        with mp.workdps(self._workdps):
            a, b = self.coords(z)
            zc = mpc(z) - mp.nint(a) * self.w1 - mp.nint(b) * self.w2
            return min(abs(zc - m * self.w1 - n * self.w2) for m in (-1, 0, 1) for n in (-1, 0, 1))

    # -- Weierstrass functions ------------------------------------------------------

    def wp_pair_raw(self, z) -> tuple:
        """(wp(z), wp'(z)) without precision management; z must avoid L.
        The integers of ``_wp_fixed``, each rounded once."""
        (pr, pi), (qr, qi) = self._wp_fixed(z)
        t, bits = self._t, self._bits
        return _unfixed(pr, pi, 2 * t - bits), _unfixed(qr, qi, 3 * t - bits)

    def _wp_fixed(self, z) -> tuple:
        """(wp(z), wp'(z)) as integers (re, im) in units of 2^(2t - W) and
        2^(3t - W), 2^t the curve's size bound, as ``_log`` reads them.

        With v = k z and the theta constants theta2, theta3, theta4 at 0
        (DLMF 23.6(i); wp' by theta1'(0) = theta2 theta3 theta4):
        wp = k^2 [(theta2 theta3 theta4(v) / theta1(v))^2 - (theta2^4 + theta3^4)/3],
        wp' = -2 k^3 (theta2 theta3 theta4)^2 theta2(v) theta3(v) theta4(v) / theta1(v)^3.
        So wp = K2 R^2 + e3 and wp' = K3 R S with the set-up constants
        K2 = (k theta2 theta3)^2 and K3 = -2 k (k theta2 theta3 theta4)^2 and
        the ratios R = theta4(v) / theta1(v), S = theta2(v) theta3(v) / theta1(v)^2,
        formed on the integer theta sums with W + 4 fraction bits.  K2
        and K3 are integers with W bits of their own (``_fixed_rel``), so
        the products keep their relative accuracy however small |q| makes
        them; e3 is in the unit of wp.  Rounding to the unit of the result
        costs wp under 2^-W of s^2 and wp' under 2^-W of s^3, and where R or
        S is large the result keeps its relative accuracy.  Reducing z
        against (r1, r2) bounds |Im v| by L/2 = -2 log|q^(1/4)|.
        """
        r1, r2 = self._reduced
        z = mpc(z)
        a, b = (int(mp.nint(c)) for c in _coords(z, self._dual_reduced))
        if a or b:
            z = z - a * r1 - b * r2
        if _abs2(z) < self._pole2:  # |z| < 10^-(workdps-5) rho
            raise CurveError("wp evaluated at a lattice point")
        ((t1r, t1i), (t2r, t2i), (t3r, t3i), (t4r, t4i)), _exp = _theta_sums(self._q4, self._big_l, self._k * z)
        bits = self._bits + 4
        # theta_j / theta1 = theta_j conj(theta1) / |theta1|^2; the units 2^exp cancel.
        n1 = t1r * t1r + t1i * t1i
        rr, ri = ((t4r * t1r + t4i * t1i) << bits) // n1, ((t4i * t1r - t4r * t1i) << bits) // n1
        pr, pi = t2r * t3r - t2i * t3i, t2r * t3i + t2i * t3r  # theta2 theta3
        cr, ci = t1r * t1r - t1i * t1i, -2 * t1r * t1i  # conj(theta1)^2
        n2 = n1 * n1
        s = ((pr * cr - pi * ci) << bits) // n2, ((pr * ci + pi * cr) << bits) // n2
        (k2, shift2), (k3, shift3), e3 = self._wp_constants
        wp = _cmul(k2, _cmul((rr, ri), (rr, ri)), shift2)
        return (wp[0] + e3[0], wp[1] + e3[1]), _cmul(k3, _cmul((rr, ri), s), shift3)

    def wp_pair(self, z) -> tuple:
        with mp.workdps(self._workdps):
            return self.wp_pair_raw(z)

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
        num, den = self._residual2(t - self._t, big_x, big_y)
        if num * self._inv_res_tol2 > den:
            raise CurveError(f"point is not on the curve: residual {_nstr_ratio([(num, den)])}")
        return t, big_x, big_y

    def _residual2(self, dt, big_x, big_y) -> tuple:
        """(num, den) of the squared on-curve residual of ``_require_on_curve``,
        dt = t - (the curve's t), with 4x^3, g2 x, g3 and y^2 exact in units
        of 2^(6t - 3W)."""
        bits = self._bits
        g2, g3 = ([v >> k * dt for v in g] for k, g in zip((4, 6), self._g_fixed))
        x3, g2x = _cmul(_cmul(big_x, big_x), big_x), _cmul(g2, big_x)
        rhs = [4 * a - (b << bits) - (c << 2 * bits) for a, b, c in zip(x3, g2x, g3)]
        lhs = [v << bits for v in _cmul(big_y, big_y)]
        return _dist2(lhs, rhs), max(_dist2(lhs, _ZERO), _dist2(rhs, _ZERO), self._sizes[2] >> 12 * dt)

    def point_at(self, z) -> Point:
        """Forward parametrization z -> (wp(z), wp'(z))."""
        return self.wp_pair(z)

    # -- elliptic logarithm -----------------------------------------------------------

    def _log(self, pt):
        """(z, exact): z with (wp(z), wp'(z)) = P, not reduced mod L, and
        whether z is a branch point's stored half period (already in the
        cell).  Runs at the working precision.

        With e_i the root nearest x: a branch point (y = 0 exactly, x within
        10^-(digits-4) max(|x|, s^2) of e_i) maps to its half period w_i.
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
        bits, dt = self._bits, t - self._t
        s4, s6, _s12 = (v >> k * dt for k, v in zip((4, 6, 12), self._sizes))
        dist2 = [_dist2(big_x, [v >> 2 * dt for v in r]) for r in self._roots_fixed]
        i = min(range(3), key=dist2.__getitem__)
        size_x2 = max(_dist2(big_x, _ZERO), s4)
        if not y and dist2[i] * self._inv_root_tol2 <= size_x2:
            return self._half_periods[i], True
        e = self.roots
        if y and 16 * dist2[i] < self._gaps[i] >> 4 * dt:
            ej, ek = e[i - 1], e[i - 2]
            d = y * y / (4 * (x - ej) * (x - ek))
            x_log, shift = e[i] + (e[i] - ej) * (e[i] - ek) / d, self._half_periods[i]
        else:
            x_log, shift = x, 0
        if _abs2(x_log) > self._far2:
            z = 1 / mp.sqrt(x_log) + shift
        else:
            z = _agm_log(self._walk, e[1], e[2], x_log) + shift
        big_p, (ppr, ppi) = ([v >> k * dt for v in w] for k, w in zip((2, 3), self._wp_fixed(z)))
        if ppr * big_y[0] + ppi * big_y[1] < 0:  # |pp - y| > |pp + y|, as in _nearer
            z, ppr, ppi = -z, -ppr, -ppi
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
        return z, False

    def elliptic_log(self, pt: Point):
        """z with wp(z) = x(P), wp'(z) = y(P), reduced to the fundamental cell
        (see ``_log``); a branch point gives its stored half period as is.

        z is about 1/sqrt(x) far from the origin, so a point with |x| beyond
        about 10^(2 (workdps - 5)) / rho^2 lies within the pole's tolerance
        and raises "wp evaluated at a lattice point" (at 40 digits x = 1e100
        is fine, x = 1e300 is not).
        """
        if pt is None:
            return mpc(0)
        with mp.workdps(self._workdps):
            z, exact = self._log(pt)
            return z if exact else self.reduce_fundamental(z)

    # -- Abel-Jacobi ------------------------------------------------------------------

    def _aj_sum(self, divisor: Divisor):
        """(z, exact): the sum of m z(P) over the unreduced logarithms z(P) of
        ``_log``, and whether z is a lone branch point's stored half period
        (the divisor's only point other than O, with multiplicity 1).  Runs
        at the working precision."""
        if divisor.degree != 0:
            raise CurveError(f"divisor has degree {divisor.degree}, expected 0")
        terms = [(pt, mult) for pt, mult in divisor.entries if mult and pt is not None]
        total, exact = mpc(0), False
        for pt, mult in terms:
            z, exact = self._log(pt)
            total += mult * z
        return total, exact and len(terms) == 1 and terms[0][1] == 1

    def aj(self, divisor: Divisor):
        """Abel-Jacobi value of a degree-zero divisor in C/L (fundamental cell):
        the sum of m z(P) over the unreduced logarithms z(P) of ``_log``,
        reduced once.  A lone branch point (see ``_aj_sum``) gives its stored
        half period as is, as ``elliptic_log`` does."""
        with mp.workdps(self._workdps):
            z, exact = self._aj_sum(divisor)
            return z if exact else self.reduce_fundamental(z)

    def _aj_coords(self, divisor: Divisor) -> tuple:
        """(z, a, b): the value of ``aj`` and its coordinates (a, b) mod 1,
        z = a w1 + b w2, from one ``frac_coords`` solve."""
        with mp.workdps(self._workdps):
            z, exact = self._aj_sum(divisor)
            a, b = self.frac_coords(z)
            return (z if exact else a * self.w1 + b * self.w2), a, b
