"""Fixed-point kernels of the Abel-Jacobi map, on Python integers alone.

A complex number is a pair of integers (re, im) in units of 2^e, or a
triple (re, im, exp) with an exponent of its own (``hfcalc._elementary``).
Halving and division truncate towards 0, and the square root is
symmetric, so -x and conj(x) give exactly the negated or conjugated
integers and a zero part stays an exact 0: real inputs give exactly real
results.  Rounding is absolute in the unit, so each caller picks the unit
from a bound on the numbers it holds.  Nothing here reads mpmath: each
kernel is a function of its integer arguments, the working precision
among them as ``prec``, bits, and ``dps``, decimal digits, where a term
count or a tolerance needs them; ``hfcalc.abeljacobi`` converts between
mpc and integers and passes them down.  The kernels are the curve's: the
discriminant and Cardano's roots (``_discriminant``, ``_cardano``), the
complex AGM sequence and the periods (``_agm_pairs``, ``_periods``), the
lattice reduction and the nome (``_reduce_basis``, ``_nome``), the Jacobi
theta sums at v (``_theta_sums``), which at v = 0 give the lattice's theta
constants (``_theta_lattice``), wp and wp' from them (``_wp_thetas``), the
on-curve residual (``_residual2``) and the logarithm's walk and arcsine
(``_agm_log``).
They and the elementary functions are modules of their own so that no
one module's compilation, which each process without cached bytecode pays
once, grows with all of them.
"""

from __future__ import annotations

import math

from hfcalc._elementary import (
    _asin,
    _ccbrt,
    _cdiv,
    _cmul,
    _cos_sin,
    _cos_sin_real,
    _csqrt,
    _dist2,
    _exp_small,
    _float,
    _ln2,
    _nint,
    _pi,
    _scale,
    _tdiv,
    _tshift,
    _zadd,
    _ZBITS,
    _zdiv,
    _ZERO,
    _zmag,
    _zmul,
)
from hfcalc.errors import CurveError


def _agm_unit(mag_a, mag_b, prec):
    """The AGM's unit 2^(e - wp) for |a| < 2^mag_a and |b| < 2^mag_b: every
    a_n and b_n is at most 2^e, e = max(mag_a, mag_b), and wp = prec + 30 +
    |mag_a - mag_b| bits keep the smaller one's relative accuracy."""
    return max(mag_a, mag_b) - prec - 30 - abs(mag_a - mag_b)


def _agm_roots(da, db, unit, prec, dps):
    """``_agm_pairs`` of a = sqrt(da) and b = +-sqrt(db), b taken nearer a
    (b on a tie: Re(a conj(b)) >= 0), for integer pairs da, db in units of
    2^unit: (unit, pairs).  The square roots are ``_csqrt`` straight into
    the AGM's unit, |sqrt(d)| < 2^((mag d + 1) // 2) bounding their size."""
    mag_a, mag_b = ((_zmag((*d, unit)) + 2) >> 1 for d in (da, db))
    agm = _agm_unit(mag_a, mag_b, prec)
    (ar, ai), (br, bi) = (_csqrt(*(_scale(v, unit - 2 * agm) for v in d)) for d in (da, db))
    if ar * br + ai * bi < 0:
        br, bi = -br, -bi
    return agm, _agm_pairs(ar, ai, br, bi, dps)


def _agm_pairs(ar, ai, br, bi, dps):
    """The AGM pairs (a_0, b_0), ..., (a_N, b_N) of ``complex_agm`` from the
    integers of (a_0, b_0) in the unit of ``_agm_unit``, with N >= 1 the
    first index where |a_N - b_N| <= 10^-(dps-3) |a_N|: each pair is the
    integers (Re a_n, Im a_n, Re b_n, Im b_n) in that unit.  Halving
    truncates towards 0 and ``_csqrt`` is conjugate-symmetric, so a
    conjugate pair b = conj(a) steps to exactly real pairs.  The sign test
    and the stop rule are exact integer comparisons."""
    pairs = [(ar, ai, br, bi)]
    inv_tol2 = 10 ** (2 * (dps - 3))
    for _ in range(dps * 4 + 40):
        (br, bi), ar, ai = _csqrt(ar * br - ai * bi, ar * bi + ai * br), _tshift(ar + br, 1), _tshift(ai + bi, 1)
        d = ar * br + ai * bi  # Re(a conj(b)) = (|a + b|^2 - |a - b|^2) / 4
        if d < 0 or (d == 0 and ar * bi - ai * br < 0):  # ties towards Im(b/a) > 0
            br, bi = -br, -bi
        pairs.append((ar, ai, br, bi))
        dr, di = ar - br, ai - bi
        if (dr * dr + di * di) * inv_tol2 <= ar * ar + ai * ai:
            return pairs
    raise CurveError("complex AGM failed to converge")


def _theta_sums(q4, big_l, v, prec, dps):
    """Jacobi theta functions (theta1, ..., theta4)(v) of the nome q = q4^4
    (DLMF 20.2(i)) as integers: ((re, im) of each, exp), theta_j =
    (re + i im) 2^exp.  They are sums of q^(m^2/4) sin(mv) (theta1, odd m)
    and q^(m^2/4) cos(mv) (theta2 odd m, theta3 and theta4 even m).

    f((m + 1)v) = 2 cos(v) f(mv) - f((m - 1)v) keeps sin(mv) accurate as
    v -> 0, where theta1 vanishes.  Term m is at most
    exp(-L m^2/4 + m |Im v|), L = -4 log|q4| = pi Im(tau), so summing to
    m = 2 |Im v|/L + sqrt(4 dps log(10)/L + 1) leaves every later term
    10^-dps under the largest of its parity.

    q4 and v are triples (``hfcalc._elementary``).  The sums run on Python
    integers in units of 2^-wp, wp = prec + guard, each part of a complex
    number one integer, from cos v and sin v on integers (``_cos_sin``).
    Rounding there is absolute, so the guard bits are 20, plus
    terms |Im v| / log 2 because |cos(mv)| and |sin(mv)| reach
    exp(m |Im v|), plus -log2|v| and -log2|q4| (when positive) because
    theta1(v) is about 2 q4 v and theta2(0) about 2 q4 and must keep their
    relative accuracy.  A zero part of q4, cos v or sin v stays an exact 0,
    so real inputs give exactly real outputs.
    """
    vr, vi, ve = v
    im_v = abs(_float(vi, ve))
    terms = int(2 * im_v / big_l + math.sqrt(4 * dps * math.log(10) / big_l + 1))
    guard = 20 + math.ceil(terms * im_v / math.log(2)) + max(0, -_zmag(q4))
    if vr or vi:
        guard += max(0, -_zmag(v))
    wp = prec + guard
    (cr, ci), (sr, si) = _cos_sin(_scale(vr, ve + wp), _scale(vi, ve + wp), wp, prec)
    tr, ti = _scale(q4[0], q4[2] + wp), _scale(q4[1], q4[2] + wp)
    # t = q^(m^2/4), u = q^((2m + 1)/4), h = q^(1/2); cos and sin of mv
    # (c, s) and of (m - 1)v (cp, sp); products shift once by wp.
    hr, hi = (tr * tr >> wp) - (ti * ti >> wp), 2 * (tr * ti >> wp)
    ur, ui = (hr * tr >> wp) - (hi * ti >> wp), (hr * ti >> wp) + (hi * tr >> wp)
    two_cr, two_ci = 2 * cr, 2 * ci
    cpr, cpi, spr, spi = 1 << wp, 0, 0, 0
    # Sums of q^(m^2/4) cos(mv) and sin(mv) over each class of m mod 4, in
    # units of 2^(-2 wp): the products t c and t s are not shifted.
    cos_r, cos_i, sin_r, sin_i = [0] * 4, [0] * 4, [0] * 4, [0] * 4
    for m in range(1, terms + 1):
        r = m % 4
        cos_r[r] += tr * cr - ti * ci
        cos_i[r] += tr * ci + ti * cr
        if m % 2:
            sin_r[r] += tr * sr - ti * si
            sin_i[r] += tr * si + ti * sr
        tr, ti = (tr * ur >> wp) - (ti * ui >> wp), (tr * ui >> wp) + (ti * ur >> wp)
        ur, ui = (ur * hr >> wp) - (ui * hi >> wp), (ur * hi >> wp) + (ui * hr >> wp)
        cpr, cpi, cr, ci = (
            cr, ci, (two_cr * cr >> wp) - (two_ci * ci >> wp) - cpr, (two_cr * ci >> wp) + (two_ci * cr >> wp) - cpi
        )
        spr, spi, sr, si = (
            sr, si, (two_cr * sr >> wp) - (two_ci * si >> wp) - spr, (two_cr * si >> wp) + (two_ci * sr >> wp) - spi
        )
    # theta = 2 (sums), or 1 + 2 (sums), in units of 2^(1 - 2 wp).
    half = 1 << (2 * wp - 1)
    return (
        (sin_r[1] - sin_r[3], sin_i[1] - sin_i[3]),
        (cos_r[1] + cos_r[3], cos_i[1] + cos_i[3]),
        (half + cos_r[0] + cos_r[2], cos_i[0] + cos_i[2]),
        (half + cos_r[0] - cos_r[2], cos_i[0] - cos_i[2]),
    ), 1 - 2 * wp


def _reduce_basis(w1, w2, dps):
    """SL_2(Z)-reduce the basis of integer pairs (w1, w2), one unit, so that
    tau = w2/w1 lies in the fundamental domain: (r1, r2, (a, b, c, d)) with
    r1 = a w1 + b w2, r2 = c w1 + d w2 and ad - bc = 1.  Each step shifts
    w2 by the integer nearest Re(tau) = Re(w2 conj(w1)) / |w1|^2 and swaps
    (w1, w2) -> (w2, -w1) while |tau| < 1 - 10^-dps, every test exact."""
    ten = 10 ** dps
    inside, outside = (ten - 1) ** 2, ten * ten  # |tau|^2 < inside / outside
    a, b, c, d = 1, 0, 0, 1
    for _ in range(10000):
        n1 = w1[0] * w1[0] + w1[1] * w1[1]
        shift = _nint(w2[0] * w1[0] + w2[1] * w1[1], n1)
        if shift:
            w2 = w2[0] - shift * w1[0], w2[1] - shift * w1[1]
            c, d = c - shift * a, d - shift * b
        if (w2[0] * w2[0] + w2[1] * w2[1]) * outside < n1 * inside:
            w1, w2 = w2, (-w1[0], -w1[1])
            a, b, c, d = c, d, -a, -b
            continue
        return w1, w2, (a, b, c, d)
    raise CurveError("lattice basis reduction failed")


def _nome(r1, r2, prec):
    """For a reduced basis of integer pairs (one unit): q^(1/4) =
    exp(i pi tau / 4), tau = r2 / r1, as a triple with prec + ``_ZBITS``
    bits, and L = pi Im(tau) as a float.  q^(1/4) = exp(-y) (cos x + i sin x)
    with x + iy = pi tau / 4, exp(-y) = 2^-m exp(m log 2 - y); an
    imaginary tau (a rectangular lattice) gives an exactly real q^(1/4)."""
    wp = prec + _ZBITS
    n1 = r1[0] * r1[0] + r1[1] * r1[1]
    pi = _pi(wp, prec)
    x = _tdiv(pi * (r2[0] * r1[0] + r2[1] * r1[1]), 4 * n1)  # units 2^-wp
    y = _tdiv(pi * (r2[1] * r1[0] - r2[0] * r1[1]), 4 * n1)
    ln2 = _ln2(wp, prec)
    m = (2 * y + ln2) // (2 * ln2)
    e = _exp_small(m * ln2 - y, wp)
    c, s = _cos_sin_real(x, wp)
    return (e * c >> wp, _tshift(e * s, wp), -wp - m), 4 * _float(y, -wp)


def _theta_lattice(r1, r2, unit, t, prec, dps):
    """For a reduced basis of integer pairs in units of 2^unit: k = pi / r1
    and q^(1/4) = exp(i pi tau / 4), tau = r2 / r1, as triples (``_nome``),
    L = -4 log|q^(1/4)| = pi Im(tau) as a float, the constants
    K2 = (k theta2 theta3)^2 and K3 = -2 k (k theta2 theta3 theta4)^2 of
    ``_wp_fixed`` as triples with the theta constants (``_theta_sums`` at
    v = 0), and (e1, e2, e3) = wp at (r1/2, (r1 + r2)/2, r2/2), g2 and g3
    as integers (re, im) in units of 2^(2t - W), 2^(4t - W) and 2^(6t - W),
    W = prec + 16, 2^t a size of the lattice's weight 1.

    wp takes e1 = k^2 (theta3^4 + theta4^4)/3, e2 = k^2 (theta2^4 - theta4^4)/3
    and e3 = -k^2 (theta2^4 + theta3^4)/3 at those half periods (DLMF 23.6(i)),
    so g2 = 2 (e1^2 + e2^2 + e3^2) and g3 = 4 e1 e2 e3.  The fourth powers
    and their sums are exact integers, and the e_i are rounded once to
    their unit.
    """
    wp = prec + 40
    k = _zdiv((_pi(wp, prec), 0, -wp), (*r1, unit), prec)
    q4, big_l = _nome(r1, r2, prec)
    # The sums at v = 0, where theta1 vanishes, from 2^(1 - 2 wp) to 2^-wp.
    (_t1, *thetas), exp = _theta_sums(q4, big_l, (0, 0, 0), prec, dps)
    wp = (1 - exp) // 2
    t2, t3, t4 = ((_scale(re, exp + wp), _scale(im, exp + wp)) for re, im in thetas)
    k2, t23 = _zmul(k, k), _cmul(t2, t3)
    c2 = (*_cmul(t23, t23), -4 * wp)  # (theta2 theta3)^2
    big_k2 = _zmul(k2, c2)
    big_k3 = _zmul(_zmul(k, k2), (*_cmul(c2[:2], _cmul(t4, t4)), c2[2] - 2 * wp))
    big_k3 = -2 * big_k3[0], -2 * big_k3[1], big_k3[2]
    p2, p3, p4 = (_cmul(_cmul(x, x), _cmul(x, x)) for x in (t2, t3, t4))
    # e_i = (k^2/3) E_i 2^(-4 wp), with k^2/3 in units of 2^(2t - W).
    bits = prec + 16
    s = [_tdiv(_scale(v, k2[2] + bits - 2 * t), 3) for v in k2[:2]]
    sums = [a + b for a, b in zip(p3, p4)], [a - b for a, b in zip(p2, p4)], [-a - b for a, b in zip(p2, p3)]
    e = [_cmul(s, v, 4 * wp) for v in sums]
    g2 = [2 * (a + b + c) >> bits for a, b, c in zip(*(_cmul(v, v) for v in e))]  # units 2^(4t - W)
    g3 = [4 * v >> 2 * bits for v in _cmul(_cmul(e[0], e[1]), e[2])]  # units 2^(6t - W)
    return k, q4, big_l, big_k2, big_k3, e, g2, g3


def _wp_thetas(thetas, bits, k2, k3, e3):
    """(wp, wp') = (K2 R^2 + e3, K3 R S) of ``_wp_fixed`` from the theta sums
    (theta1, ..., theta4)(v), integer pairs in one unit, which cancels:
    R = theta4 / theta1 and S = theta2 theta3 / theta1^2 with ``bits``
    fraction bits, K2 and K3 as (integer, right shift to the result's unit)
    and e3 in the unit of wp."""
    (t1r, t1i), (t2r, t2i), (t3r, t3i), (t4r, t4i) = thetas
    # theta_j / theta1 = theta_j conj(theta1) / |theta1|^2.
    n1 = t1r * t1r + t1i * t1i
    rr, ri = ((t4r * t1r + t4i * t1i) << bits) // n1, ((t4i * t1r - t4r * t1i) << bits) // n1
    pr, pi = t2r * t3r - t2i * t3i, t2r * t3i + t2i * t3r  # theta2 theta3
    cr, ci = t1r * t1r - t1i * t1i, -2 * t1r * t1i  # conj(theta1)^2
    n2 = n1 * n1
    s = ((pr * cr - pi * ci) << bits) // n2, ((pr * ci + pi * cr) << bits) // n2
    wp = _cmul(k2[0], _cmul((rr, ri), (rr, ri)), k2[1])
    return (wp[0] + e3[0], wp[1] + e3[1]), _cmul(k3[0], _cmul((rr, ri), s), k3[1])


def _log_walk(unit, pairs):
    """What the elliptic logarithm keeps of the AGM ``pairs``: unit,
    d_n = a_n^2 - b_n^2 for n = 1..N in units of 2^(2 unit), and 2M =
    a_N + b_N, M the mean, as integers in units of 2^unit."""
    ds = [(ar * ar - ai * ai - br * br + bi * bi, 2 * (ar * ai - br * bi)) for ar, ai, br, bi in pairs[1:]]
    ar, ai, br, bi = pairs[-1]
    return unit, ds, (ar + br, ai + bi)


def _periods(e1, e2, e3, unit, prec, dps):
    """Cremona-Thongjunthug periods w1 = pi / M(a, b) and w2 = pi i / M(a, c)
    as triples, a = sqrt(e1 - e3), b = +-sqrt(e1 - e2), c = +-sqrt(e2 - e3),
    of the roots in this order as integer pairs in units of 2^unit, and the
    ``_log_walk`` of the AGM of (a, b): the roots' differences are exact,
    and the square roots are in each AGM's unit (``_agm_roots``)."""
    (r1, i1), (r2, i2), (r3, i3) = e1, e2, e3
    d13 = r1 - r3, i1 - i3
    walk = _log_walk(*_agm_roots(d13, (r1 - r2, i1 - i2), unit, prec, dps))
    unit, pairs = _agm_roots(d13, (r2 - r3, i2 - i3), unit, prec, dps)
    ar, ai, br, bi = pairs[-1]
    wp = prec + 40
    pi = _pi(wp, prec)
    # 2M = a_N + b_N in units of 2^walk[0], and 2M' likewise.
    w1 = _zdiv((2 * pi, 0, -wp), (*walk[2], walk[0]), prec)
    return w1, _zdiv((0, 2 * pi, -wp), (ar + br, ai + bi, unit), prec), walk


def _log_start(unit, d3, d2):
    """c after the step of pair 0 of the logarithm walk, as integers in
    units of 2^unit: (sqrt(x - e3) + sqrt(x - e2))/2, the second root taken
    nearer the first.  That is c <- (c + sqrt(c^2 - a_0^2 + b_0^2))/2 from
    c = sqrt(x - e3) by exact algebra, (x - e3) - (e1 - e3) + (e1 - e2) =
    x - e2, so the difference of nearly equal roots is never formed.

    d3 = x - e3 and d2 = x - e2, triples, shift to units of 2^(2 unit) and
    take ``_csqrt``; rounding is absolute in the AGM's unit, and truncation
    and ``_csqrt`` are conjugate-symmetric, so a real x on a real curve with
    e2 = conj(e3) gives c an exact 0 part."""
    cr, ci = _csqrt(_scale(d3[0], d3[2] - 2 * unit), _scale(d3[1], d3[2] - 2 * unit))
    sr, si = _csqrt(_scale(d2[0], d2[2] - 2 * unit), _scale(d2[1], d2[2] - 2 * unit))
    if cr * sr + ci * si < 0:  # the root nearer c: Re(c conj(s)) >= 0
        sr, si = -sr, -si
    return _tshift(cr + sr, 1), _tshift(ci + si, 1)


def _agm_log(walk, d3, d2, prec):
    """Cremona-Thongjunthug elliptic logarithm: z with wp(z) = x, up to sign
    and the lattice, as a triple, from the triples d3 = x - e3 and
    d2 = x - e2.  ``walk`` comes from ``_periods`` of the roots
    e1, e2, e3: c starts at sqrt(x - e3) and takes one step
    c <- (c + sqrt(c^2 - d_n))/2, the root nearer c, per pair, on integers
    in the AGM's units (pair 0 by ``_log_start``); then z = asin(M / c) / M
    by ``_asin`` on integers."""
    unit, ds, m2 = walk
    cr, ci = _log_start(unit, d3, d2)
    for dr, di in ds:
        sr, si = _csqrt(cr * cr - ci * ci - dr, 2 * cr * ci - di)
        if cr * sr + ci * si < 0:  # the root nearer c: Re(c conj(s)) >= 0
            sr, si = -sr, -si
        cr, ci = _tshift(cr + sr, 1), _tshift(ci + si, 1)
    # asin's error is absolute, so a small u = M / c (a point with large |x|)
    # needs -log2|u| more bits to keep its relative accuracy.
    wp = prec + 20 + max(0, _zmag((cr, ci, 0)) - _zmag((*m2, 0)) + 2)
    u = _cdiv(m2, (cr, ci), wp - 1)  # (2M / c) / 2 in units of 2^-wp
    return _zdiv((*_asin(*u, wp, prec), -wp + 1), (*m2, unit), prec)


def _translate(x, ei, ej, ek, y, unit, prec):
    """x' = e_i + 4 (e_i - e_j)(e_i - e_k)(x - e_j)(x - e_k) / y^2, the x of
    P + T_i for P = (x, y), T_i = (e_i, 0), as a triple: x and the roots are
    integer pairs in units of 2^unit, y a triple with bits of its own (a
    small y keeps its digits), and every product is exact."""
    num = _cmul(_cmul(*(((a[0] - b[0]) << 1, (a[1] - b[1]) << 1) for a, b in ((ei, ej), (ei, ek)))),
                _cmul(*((x[0] - b[0], x[1] - b[1]) for b in (ej, ek))))
    return _zadd((*ei, unit), _zdiv((*num, 4 * unit), _zmul(y, y), prec), prec)


def _residual2(x, y, g, s12, dt, bits):
    """(num, den) of the squared on-curve residual |y^2 - (4x^3 - g2 x - g3)|^2
    against the largest of |y^2|^2, |4x^3 - g2 x - g3|^2 and s^12, all in
    units of 2^(12t - 6W), W = ``bits``: x and y in units of 2^(2t - W) and
    2^(3t - W), and the curve's g = (g2, g3) and s^12 in its own units, its
    t being t - dt.  4x^3, g2 x, g3 and y^2 are exact in units of 2^(6t - 3W)."""
    g2, g3 = ([v >> k * dt for v in c] for k, c in zip((4, 6), g))
    x3, g2x = _cmul(_cmul(x, x), x), _cmul(g2, x)
    rhs = [4 * a - (b << bits) - (c << 2 * bits) for a, b, c in zip(x3, g2x, g3)]
    lhs = [v << bits for v in _cmul(y, y)]
    return _dist2(lhs, rhs), max(_dist2(lhs, _ZERO), _dist2(rhs, _ZERO), s12 >> 12 * dt)


def _discriminant(g2, g3, b):
    """g2^3 - 27 g3^2 as integers (re, im) in units of 2^(12t - 3b), exactly,
    from g2 and g3 as integer pairs in units of 2^(4t - b) and 2^(6t - b)."""
    (g2r, g2i), (g3r, g3i) = g2, g3
    c2r, c2i = g2r * g2r - g2i * g2i, 2 * g2r * g2i
    return (
        (c2r * g2r - c2i * g2i) - (27 * (g3r * g3r - g3i * g3i) << b),
        (c2r * g2i + c2i * g2r) - (27 * 2 * g3r * g3i << b),
    )


def _cardano(g2, g3, b):
    """The roots of 4x^3 - g2 x - g3 by Cardano's formula (DLMF 1.11(iii)) as
    integer pairs in units of 2^(2t - b), from g2 and g3 as integer pairs in
    units of 2^(4t - b) and 2^(6t - b), 2^t a bound on the curve's size s.

    x = u + g2 / (12 u) over the three cube roots u of
    v = (g3 +- sqrt(g3^2 - g2^3/27)) / 8, with the sign of larger modulus
    (|a + b| >= |a - b| exactly when Re(a conj(b)) >= 0; u = 0 only if
    g2 = g3 = 0).  With omega = exp(2 pi i / 3) and q = g2 / (12 u),
    g2 / (12 u omega) = q conj(omega), so one division serves all three.
    Near a double root the roots differ by about sqrt(disc), so b = 2 prec
    + 20 bits, twice the working precision, keep every working digit while
    |disc| / scale >= 10^-digits.  g2^3 and 27 g3^2 are exact
    (``_discriminant``), the square root is ``_csqrt``, the cube root
    ``_ccbrt``, and every product and quotient truncates towards 0, so real
    g2, g3 with one real root give it exactly real and the other two
    exactly conjugate."""
    (g2r, g2i), (g3r, g3i) = g2, g3
    # 1728 (g3^2/64 - g2^3/1728) = 27 g3^2 - g2^3 in units of 2^(12t - 3B);
    # the square root of its 1728th in units of 2^(6t - B - 10), and g3/8 there.
    nr, ni = (-v for v in _discriminant(g2, g3, b))
    sr, si = _csqrt(_tdiv(nr, 1728 << b - 20), _tdiv(ni, 1728 << b - 20))
    tr, ti = g3r << 7, g3i << 7
    if tr * sr + ti * si < 0:
        sr, si = -sr, -si
    # v = g3/8 + s, in units of 2^(6t - 3B) for a root in units of 2^(2t - B).
    ur, ui = _ccbrt(tr + sr << 2 * b - 10, ti + si << 2 * b - 10)
    # q = g2 / (12 u) = (g2 << B) conj(u) / (12 |u|^2), units 2^(2t - B).
    den = 12 * (ur * ur + ui * ui)
    qr, qi = _tdiv((g2r * ur + g2i * ui) << b, den), _tdiv((g2i * ur - g2r * ui) << b, den)
    wr, wi = -(1 << b - 1), math.isqrt(3 << 2 * b) >> 1  # exp(2 pi i / 3) in units of 2^-B
    return [
        (ur + qr, ui + qi),
        (_tdiv(ur * wr - ui * wi + qr * wr + qi * wi, 1 << b), _tdiv(ur * wi + ui * wr - qr * wi + qi * wr, 1 << b)),
        (_tdiv(ur * wr + ui * wi + qr * wr - qi * wi, 1 << b), _tdiv(ui * wr - ur * wi + qr * wi + qi * wr, 1 << b)),
    ]


def _chop(roots, unit, prec):
    """The integer roots (re, im) with parts below eps = 2^(1 - prec) set
    to 0 as ``polyroots`` chops them: (0, 0) when |r| < eps, else a part
    with |part| < eps, the integers read in units of 2^unit.  The caller
    passes the roots' unit over their size bound 2^(2t), so eps is relative
    to the curve's size and (l^4 g2, l^6 g3) chops as (g2, g3) does.  Each
    root rounded once to the working precision (``_round``) is then a root
    of the curve."""
    k = 2 * (1 - prec - unit)  # |v|^2 < eps^2 <=> v^2 < 2^k in units of 2^(2 unit)
    small = (lambda n2: n2 < 1 << k) if k >= 0 else (lambda n2: n2 == 0)
    out = []
    for re, im in roots:
        if small(re * re + im * im):
            re = im = 0
        elif small(im * im):
            im = 0
        elif small(re * re):
            re = 0
        out.append((re, im))
    return out
