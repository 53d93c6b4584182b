"""Compensated double-double arithmetic for cancellation-heavy series.

A double-double value is a pair ``(hi, lo)`` with ``hi + lo`` understood in
exact arithmetic and ``|lo| <= ulp(hi)/2``, giving roughly 32 significant
decimal digits.  All helpers are plain arithmetic expressions, so they work
unchanged on Python floats and on numpy arrays.

Based on the classical error-free transformations of Dekker and Knuth; no
fused multiply-add is assumed.
"""

_SPLITTER = 134217729.0  # 2**27 + 1


def two_sum(a, b):
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def quick_two_sum(a, b):
    # requires |a| >= |b| (or a == 0)
    s = a + b
    err = b - (s - a)
    return s, err


def split(a):
    t = _SPLITTER * a
    hi = t - (t - a)
    lo = a - hi
    return hi, lo


def two_prod(a, b):
    p = a * b
    ah, al = split(a)
    bh, bl = split(b)
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def add(x, y):
    xh, xl = x
    yh, yl = y
    s1, s2 = two_sum(xh, yh)
    t1, t2 = two_sum(xl, yl)
    s2 = s2 + t1
    s1, s2 = quick_two_sum(s1, s2)
    s2 = s2 + t2
    return quick_two_sum(s1, s2)


def mul(x, y):
    xh, xl = x
    yh, yl = y
    p, e = two_prod(xh, yh)
    e = e + (xh * yl + xl * yh)
    return quick_two_sum(p, e)


def div_float(x, f):
    """Divide by a float that is exact (small integers in series recurrences)."""
    xh, xl = x
    q1 = xh / f
    p, pe = two_prod(q1, f)
    r = ((xh - p) - pe) + xl
    q2 = r / f
    return quick_two_sum(q1, q2)


def to_float(x):
    return x[0] + x[1]
