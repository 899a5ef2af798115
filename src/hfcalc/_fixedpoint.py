"""Fixed-point kernels of the Abel-Jacobi map, on Python integers.

A complex number is a pair of integers (re, im) in units of 2^e, or a
triple (re, im, exp) with an exponent of its own (``hfcalc._elementary``).
Conversion from mpc (``_fixed``) and halving truncate towards 0, and the
square root is symmetric, so -x and conj(x) give exactly the negated or
conjugated integers and a zero part stays an exact 0: real inputs give
exactly real results.  Rounding is absolute in the unit, so each caller
picks the unit from a bound on the numbers it holds, and a number from
outside enters in a unit its own size sets (``_relative``, ``_curve_scale``).
The kernels are the curve's: the discriminant and Cardano's roots
(``_curve_scale``, ``_discriminant``, ``_cardano``), the complex AGM
sequence (``_agm_sequence``), the lattice reduction and the nome
(``_reduce_basis``, ``_nome``), the Jacobi theta sums at v
(``_theta_sums``) and at 0 (``_theta_constants``), the logarithm's walk
and arcsine (``_agm_log``) and the reductions to the nearest lattice point
(``_cell_nearest``) and into the cell (``_cell_reduce``);
``hfcalc.abeljacobi`` builds the curve on them.
They and the elementary functions are modules of their own so that no
one module's compilation, which each process without cached bytecode pays
once, grows with all of them.
"""

from __future__ import annotations

import math

from mpmath import mp
from mpmath.libmp import from_man_exp, mpf_shift, to_int

from hfcalc._elementary import (
    _asin,
    _ccbrt,
    _cdiv,
    _cmul,
    _constants,
    _cos_sin,
    _cos_sin_real,
    _csqrt,
    _exp_small,
    _float,
    _half,
    _ln2,
    _nint,
    _pi,
    _scale,
    _tdiv,
    _tshift,
    _zadd,
    _ZBITS,
    _zdiv,
    _zmag,
    _zmul,
)
from hfcalc.errors import CurveError


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


def _dist2(a, b):
    """|a - b|^2 of two complex integers (re, im)."""
    dr, di = a[0] - b[0], a[1] - b[1]
    return dr * dr + di * di


_ZERO = (0, 0)


def _agm_sequence(a, b):
    """The AGM pairs (a_0, b_0), ..., (a_N, b_N) of ``complex_agm``, with N >= 1
    the first index where |a_N - b_N| <= 10^-(dps-3) |a_N|, as (unit, pairs):
    each pair is the integers (Re a_n, Im a_n, Re b_n, Im b_n) in units of
    2^unit.

    Every a_n and b_n is at most 2^e, e = max(mag a, mag b), so unit =
    e - wp with wp = prec + 30 + |mag a - mag b| guard bits: rounding is
    absolute, and the smaller of a and b keeps its relative accuracy.
    Conversion and halving truncate towards 0 and ``_csqrt`` is
    conjugate-symmetric, so a conjugate pair b = conj(a) steps to exactly
    real pairs.  The sign test and the stop rule are exact integer
    comparisons.
    """
    unit = _agm_unit(mp.mag(a), mp.mag(b))
    return unit, _agm_pairs(*_fixed(a, -unit), *_fixed(b, -unit))


def _agm_unit(mag_a, mag_b):
    """The unit of ``_agm_sequence`` for |a| < 2^mag_a and |b| < 2^mag_b."""
    return max(mag_a, mag_b) - mp.prec - 30 - abs(mag_a - mag_b)


def _agm_roots(da, db, unit):
    """``_agm_sequence`` of a = sqrt(da) and b = +-sqrt(db), b taken nearer a
    (b on a tie: Re(a conj(b)) >= 0), for integer pairs da, db in units of
    2^unit: (unit, pairs).  The square roots are ``_csqrt`` straight into
    the AGM's unit, |sqrt(d)| < 2^((mag d + 1) // 2) bounding their size."""
    mag_a, mag_b = ((_zmag((*d, unit)) + 2) >> 1 for d in (da, db))
    agm = _agm_unit(mag_a, mag_b)
    (ar, ai), (br, bi) = (_csqrt(*(_scale(v, unit - 2 * agm) for v in d)) for d in (da, db))
    if ar * br + ai * bi < 0:
        br, bi = -br, -bi
    return agm, _agm_pairs(ar, ai, br, bi)


def _agm_pairs(ar, ai, br, bi):
    """The pairs of ``_agm_sequence`` from the integers of (a_0, b_0)."""
    pairs = [(ar, ai, br, bi)]
    inv_tol2 = _constants().inv_tol2
    for _ in range(mp.dps * 4 + 40):
        (br, bi), ar, ai = _csqrt(ar * br - ai * bi, ar * bi + ai * br), _half(ar + br), _half(ai + bi)
        d = ar * br + ai * bi  # Re(a conj(b)) = (|a + b|^2 - |a - b|^2) / 4
        if d < 0 or (d == 0 and ar * bi - ai * br < 0):  # ties towards Im(b/a) > 0
            br, bi = -br, -bi
        pairs.append((ar, ai, br, bi))
        dr, di = ar - br, ai - bi
        if (dr * dr + di * di) * inv_tol2 <= ar * ar + ai * ai:
            return pairs
    raise CurveError("complex AGM failed to converge")


def _agm_mean(unit, pair):
    """(a_n + b_n)/2 of an integer pair of ``_agm_sequence``, rounded once."""
    ar, ai, br, bi = pair
    return _unfixed(ar + br, ai + bi, unit - 1)


def _theta_sums(q4, big_l, v):
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
    terms = int(2 * im_v / big_l + math.sqrt(4 * mp.dps * math.log(10) / big_l + 1))
    guard = 20 + math.ceil(terms * im_v / math.log(2)) + max(0, -_zmag(q4))
    if vr or vi:
        guard += max(0, -_zmag(v))
    wp = mp.prec + guard
    (cr, ci), (sr, si) = _cos_sin(_scale(vr, ve + wp), _scale(vi, ve + wp), wp)
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


def _theta_constants(q4, big_l):
    """(theta2, theta3, theta4) at v = 0 of the nome q = q4^4, q4 a triple, as integers
    (re, im) in units of 2^-wp, and wp.

    At v = 0 every cos(mv) is 1 and theta1 vanishes, so one pass sums
    t = q^(m^2/4) over each class of m mod 4, two complex products a term,
    to the term count of ``_theta_sums``; the guard bits are 20 plus
    -log2|q4| (when positive), because theta2 is about 2 q4 and must keep
    its relative accuracy.  A real q4 gives exactly real constants.
    """
    terms = int(math.sqrt(4 * mp.dps * math.log(10) / big_l + 1))
    wp = mp.prec + 20 + max(0, -_zmag(q4))
    # t = q^(m^2/4), u = q^((2m + 1)/4), h = q^(1/2), as in _theta_sums.
    tr, ti = _scale(q4[0], q4[2] + wp), _scale(q4[1], q4[2] + wp)
    hr, hi = _cmul((tr, ti), (tr, ti), wp)
    ur, ui = _cmul((hr, hi), (tr, ti), wp)
    sum_r, sum_i = [0] * 4, [0] * 4
    for m in range(1, terms + 1):
        sum_r[m % 4] += tr
        sum_i[m % 4] += ti
        tr, ti = (tr * ur - ti * ui) >> wp, (tr * ui + ti * ur) >> wp
        ur, ui = (ur * hr - ui * hi) >> wp, (ur * hi + ui * hr) >> wp
    (r0, r1, r2, r3), (i0, i1, i2, i3) = sum_r, sum_i
    one = 1 << wp
    return ((2 * (r1 + r3), 2 * (i1 + i3)), (one + 2 * (r0 + r2), 2 * (i0 + i2)), (one + 2 * (r0 - r2), 2 * (i0 - i2))), wp


def _reduce_basis(w1, w2):
    """SL_2(Z)-reduce the basis of integer pairs (w1, w2), one unit, so that
    tau = w2/w1 lies in the fundamental domain: (r1, r2, (a, b, c, d)) with
    r1 = a w1 + b w2, r2 = c w1 + d w2 and ad - bc = 1.  Each step shifts
    w2 by the integer nearest Re(tau) = Re(w2 conj(w1)) / |w1|^2 and swaps
    (w1, w2) -> (w2, -w1) while |tau| < 1 - 10^-dps, every test exact."""
    inside, outside = _constants().inside  # |tau|^2 < inside / outside
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


def _nome(r1, r2):
    """For a reduced basis of integer pairs (one unit): q^(1/4) =
    exp(i pi tau / 4), tau = r2 / r1, as a triple with prec + ``_ZBITS``
    bits, and L = pi Im(tau) as a float.  q^(1/4) = exp(-y) (cos x + i sin x)
    with x + iy = pi tau / 4, exp(-y) = 2^-m exp(m log 2 - y); an
    imaginary tau (a rectangular lattice) gives an exactly real q^(1/4)."""
    wp = mp.prec + _ZBITS
    n1 = r1[0] * r1[0] + r1[1] * r1[1]
    pi = _pi(wp)
    x = _tdiv(pi * (r2[0] * r1[0] + r2[1] * r1[1]), 4 * n1)  # units 2^-wp
    y = _tdiv(pi * (r2[1] * r1[0] - r2[0] * r1[1]), 4 * n1)
    ln2 = _ln2(wp)
    m = (2 * y + ln2) // (2 * ln2)
    e = _exp_small(m * ln2 - y, wp)
    c, s = _cos_sin_real(x, wp)
    return (e * c >> wp, _tshift(e * s, wp), -wp - m), 4 * _float(y, -wp)


def _less(m, me, n, ne):
    """m 2^me < n 2^ne for integers m, n >= 0, exactly.  Unequal bit
    lengths of the two numbers decide without aligning them, so a wide gap
    between the exponents costs no shift of that many bits."""
    if not (m and n):
        return m < n
    a, b = m.bit_length() + me, n.bit_length() + ne
    if a != b:
        return a < b
    e = min(me, ne)
    return m << me - e < n << ne - e


def _cell_coords(z, w1, w2, unit, det):
    """Real coordinates (a, b) of a triple z = a w1 + b w2 for the basis of
    integer pairs (w1, w2) in units of 2^unit, with det = Im(conj(w1) w2) > 0,
    by Cramer's rule: (num_a, num_b, k) with a = num_a 2^k / det exactly.
    The power 2^k, k = exp(z) - unit, is the caller's: a z far above or
    below the basis would need |k| bits to apply it."""
    zr, zi, ze = z
    return zr * w2[1] - zi * w2[0], w1[0] * zi - w1[1] * zr, ze - unit


def _cell_nearest(z, basis):
    """z minus its nearest lattice point by coordinates (each rounded to the
    nearest integer, ties to even), exactly, for a triple z and ``basis`` =
    (w1, w2, unit, det) of ``_cell_coords``, in z's unit or the basis's if
    finer: the coordinates' remainders r_a, r_b give (r_a w1 + r_b w2) / det.
    For k > 0 the numerators are taken mod 2 det first, an even shift that
    keeps the ties' parity, so a z far coarser than the basis costs no k-bit
    shift; for k < 0 the caller bounds -k."""
    w1, w2, unit, det = basis
    na, nb, k = _cell_coords(z, w1, w2, unit, det)
    if k > 0:
        m = pow(2, k, 2 * det)
        na, nb, den = na * m % (2 * det), nb * m % (2 * det), det
    else:
        den = det << -k
    na, nb = na - _nint(na, den) * den, nb - _nint(nb, den) * den
    return (na * w1[0] + nb * w2[0]) // det, (na * w1[1] + nb * w2[1]) // det, min(z[2], unit)


def _bits():
    """W, the fraction bits of the integer checks at the current precision."""
    return mp.prec + 16


def _theta_lattice(r1, r2, unit, t):
    """For a reduced basis of integer pairs in units of 2^unit: k = pi / r1
    and q^(1/4) = exp(i pi tau / 4), tau = r2 / r1, as triples (``_nome``),
    L = -4 log|q^(1/4)| = pi Im(tau) as a float, the constants
    K2 = (k theta2 theta3)^2 and K3 = -2 k (k theta2 theta3 theta4)^2 of
    ``_wp_fixed`` as triples with the theta constants at 0, and
    (e1, e2, e3) = wp at (r1/2, (r1 + r2)/2, r2/2), g2 and g3 as integers
    (re, im) in units of 2^(2t - W), 2^(4t - W) and 2^(6t - W),
    W = ``_bits()``, 2^t a size of the lattice's weight 1.

    wp takes e1 = k^2 (theta3^4 + theta4^4)/3, e2 = k^2 (theta2^4 - theta4^4)/3
    and e3 = -k^2 (theta2^4 + theta3^4)/3 at those half periods (DLMF 23.6(i)),
    so g2 = 2 (e1^2 + e2^2 + e3^2) and g3 = 4 e1 e2 e3.  The fourth powers
    and their sums are exact integers, and the e_i are rounded once to
    their unit.
    """
    wp = mp.prec + 40
    k = _zdiv((_pi(wp), 0, -wp), (*r1, unit))
    q4, big_l = _nome(r1, r2)
    (t2, t3, t4), wp = _theta_constants(q4, big_l)
    k2, t23 = _zmul(k, k), _cmul(t2, t3)
    c2 = (*_cmul(t23, t23), -4 * wp)  # (theta2 theta3)^2
    big_k2 = _zmul(k2, c2)
    big_k3 = _zmul(_zmul(k, k2), (*_cmul(c2[:2], _cmul(t4, t4)), c2[2] - 2 * wp))
    big_k3 = -2 * big_k3[0], -2 * big_k3[1], big_k3[2]
    p2, p3, p4 = (_cmul(_cmul(x, x), _cmul(x, x)) for x in (t2, t3, t4))
    # e_i = (k^2/3) E_i 2^(-4 wp), with k^2/3 in units of 2^(2t - W).
    bits = _bits()
    s = [_tdiv(_scale(v, k2[2] + bits - 2 * t), 3) for v in k2[:2]]
    sums = [a + b for a, b in zip(p3, p4)], [a - b for a, b in zip(p2, p4)], [-a - b for a, b in zip(p2, p3)]
    e = [_cmul(s, v, 4 * wp) for v in sums]
    g2 = [2 * (a + b + c) >> bits for a, b, c in zip(*(_cmul(v, v) for v in e))]  # units 2^(4t - W)
    g3 = [4 * v >> 2 * bits for v in _cmul(_cmul(e[0], e[1]), e[2])]  # units 2^(6t - W)
    return k, q4, big_l, big_k2, big_k3, e, g2, g3


def _log_walk(unit, pairs):
    """What the elliptic logarithm keeps of the AGM ``pairs``: unit,
    d_n = a_n^2 - b_n^2 for n = 1..N in units of 2^(2 unit), and 2M =
    a_N + b_N, M the mean, as integers in units of 2^unit."""
    ds = [(ar * ar - ai * ai - br * br + bi * bi, 2 * (ar * ai - br * bi)) for ar, ai, br, bi in pairs[1:]]
    ar, ai, br, bi = pairs[-1]
    return unit, ds, (ar + br, ai + bi)


def _relative(x):
    """The mpc x as a triple with prec + ``_ZBITS`` bits below its size
    (``_fixed``), 0 as (0, 0, 0): a part further below truncates towards 0,
    so however far apart the parts' exponents lie, the integers stay that
    size.  For a z or y handed in whole; ``_exact`` serves the curve's own
    numbers, rounded from integers in one unit."""
    if not x:
        return 0, 0, 0
    wp = mp.prec + _ZBITS - _mag(x)
    return (*_fixed(x, wp), -wp)


def _lattice(w1, w2):
    """The basis of triples (w1, w2) as integer pairs in one unit, exactly, and the unit."""
    (ar, ai, ae), (br, bi, be) = w1, w2
    unit = min(ae, be)
    return (ar << ae - unit, ai << ae - unit), (br << be - unit, bi << be - unit), unit


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
    return _half(cr + sr), _half(ci + si)


def _agm_log(walk, d3, d2):
    """Cremona-Thongjunthug elliptic logarithm: z with wp(z) = x, up to sign
    and the lattice, as a triple, from the triples d3 = x - e3 and
    d2 = x - e2.  ``walk`` comes from ``_period_basis`` of the roots
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
        cr, ci = _half(cr + sr), _half(ci + si)
    # asin's error is absolute, so a small u = M / c (a point with large |x|)
    # needs -log2|u| more bits to keep its relative accuracy.
    wp = mp.prec + 20 + max(0, _zmag((cr, ci, 0)) - _zmag((*m2, 0)) + 2)
    u = _cdiv(m2, (cr, ci), wp - 1)  # (2M / c) / 2 in units of 2^-wp
    return _zdiv((*_asin(*u, wp), -wp + 1), (*m2, unit))


_FAR = 1 << 16  # bits of a z's coordinates below 1 that the reduction keeps


def _cell_reduce(z, basis, ten_digits):
    """(z mod L, num_a, num_b, den) for a triple z and ``basis`` = (w1, w2,
    unit, det) of ``_cell_coords``: the coordinates (a, b) mod 1 in [0, 1),
    a = num_a / den, each 0 where it lies within max(|a|, |b|) / ten_digits
    of an integer, and z mod L = a w1 + b w2 as a triple with W bits to spare.
    Where max(|a|, |b|) > ten_digits, both are 0 with no k-bit shift; a z
    more than ``_FAR`` bits below the basis's unit loses its coordinates'
    bits below 2^-_FAR first (below 10^-19728 of the lattice)."""
    w1, w2, unit, det = basis
    na, nb, k = _cell_coords(z, w1, w2, unit, det)
    if k > 0 and max(abs(na), abs(nb)).bit_length() + k > (ten_digits * det).bit_length():
        return (0, 0, unit), 0, 0, det
    if k < -_FAR:
        na, nb, k = _tshift(na, -k - _FAR), _tshift(nb, -k - _FAR), -_FAR
    na, nb, den = (na << k, nb << k, det) if k >= 0 else (na, nb, det << -k)
    tol = max(abs(na), abs(nb))
    na, nb = (0 if abs(n - _nint(n, den) * den) * ten_digits <= tol else n % den for n in (na, nb))
    shift = _bits() + max(0, den.bit_length() - max(na.bit_length(), nb.bit_length()))
    re, im = (_tdiv(na * u + nb * v << shift, den) for u, v in zip(w1, w2))
    return (re, im, unit - shift), na, nb, den


def _translate(x, ei, ej, ek, y, unit):
    """x' = e_i + 4 (e_i - e_j)(e_i - e_k)(x - e_j)(x - e_k) / y^2, the x of
    P + T_i for P = (x, y), T_i = (e_i, 0), as a triple: x and the roots are
    integer pairs in units of 2^unit, y a triple (``_relative``: a small y
    keeps its digits), and every product is exact."""
    num = _cmul(_cmul(*(((a[0] - b[0]) << 1, (a[1] - b[1]) << 1) for a, b in ((ei, ej), (ei, ek)))),
                _cmul(*((x[0] - b[0], x[1] - b[1]) for b in (ej, ek))))
    return _zadd((*ei, unit), _zdiv((*num, 4 * unit), _zmul(y, y)))


def _discriminant(g2, g3, b):
    """g2^3 - 27 g3^2 as integers (re, im) in units of 2^(12t - 3b), exactly,
    from g2 and g3 as integer pairs in units of 2^(4t - b) and 2^(6t - b)."""
    (g2r, g2i), (g3r, g3i) = g2, g3
    c2r, c2i = g2r * g2r - g2i * g2i, 2 * g2r * g2i
    return (
        (c2r * g2r - c2i * g2i) - (27 * (g3r * g3r - g3i * g3i) << b),
        (c2r * g2i + c2i * g2r) - (27 * 2 * g3r * g3i << b),
    )


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
    wr, wi = _constants().omega()  # exp(2 pi i / 3) in units of 2^-B
    return [
        (ur + qr, ui + qi),
        (_tdiv(ur * wr - ui * wi + qr * wr + qi * wi, 1 << b), _tdiv(ur * wi + ui * wr - qr * wi + qi * wr, 1 << b)),
        (_tdiv(ur * wr + ui * wi + qr * wr - qi * wi, 1 << b), _tdiv(ui * wr - ur * wi + qr * wi + qi * wr, 1 << b)),
    ]


def _chop(roots, unit):
    """The integer roots (re, im) in units of 2^unit with parts below
    eps = 2^(1 - prec) set to 0 as ``polyroots`` chops them: (0, 0) when
    |r| < eps, else a part with |part| < eps.  Each root rounded once to
    the working precision is then a root of the curve (``_root_out``)."""
    k = 2 * (1 - mp.prec - unit)  # |v|^2 < eps^2 <=> v^2 < 2^k in units of 2^(2 unit)
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
