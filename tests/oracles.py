"""Independent high-precision oracles for pinning expected values.

Everything here is computed with mpmath multiprecision arithmetic, mostly
summed from defining power series; the production code paths (Chebyshev
tables, asymptotic expansions, recurrences) share nothing with these routines.
``airy_cheb_table`` also generates the shipped table ``_airy_cheb.npy``.
"""

import mpmath as mp
import numpy as np


def airy_series(x, dps=60):
    """(Ai, Ai', Bi, Bi') at x from the Maclaurin series of w'' = x w.

    Initial constants from Gamma values; valid wherever enough precision is
    supplied (cancellation costs ~0.87*|x|^1.5 digits on the positive axis).
    """
    with mp.workdps(dps):
        x = mp.mpf(x)
        ai0 = mp.mpf(3) ** (mp.mpf(-2) / 3) / mp.gamma(mp.mpf(2) / 3)
        aip0 = -(mp.mpf(3) ** (mp.mpf(-1) / 3) / mp.gamma(mp.mpf(1) / 3))
        x3 = x ** 3
        f, g = mp.mpf(1), x
        fp, gp = mp.mpf(0), mp.mpf(1)
        t, u, v = mp.mpf(1), x, mp.mpf(1)
        s = x * x / 2
        for k in range(1, 2000):
            t = t * x3 / ((3 * k) * (3 * k - 1))
            u = u * x3 / ((3 * k + 1) * (3 * k))
            if k >= 2:
                s = s * x3 / ((3 * k - 1) * (3 * k - 3))
            v = v * x3 / ((3 * k) * (3 * k - 2))
            f += t
            g += u
            fp += s
            gp += v
            if max(abs(t), abs(u), abs(v)) < mp.mpf(10) ** (-dps - 10) * (abs(f) + abs(g) + 1):
                break
        sqrt3 = mp.sqrt(3)
        ai = ai0 * f + aip0 * g
        aip = ai0 * fp + aip0 * gp
        bi = sqrt3 * (ai0 * f - aip0 * g)
        bip = sqrt3 * (ai0 * fp - aip0 * gp)
        return ai, aip, bi, bip


def bessel_series(m, x, dps=50):
    """J_m(x) from the ascending series in mpmath precision."""
    with mp.workdps(dps):
        x = mp.mpf(x)
        half = x / 2
        t = half ** m / mp.factorial(m)
        total = t
        q = -half * half
        for k in range(1, 5000):
            t = t * q / (k * (k + m))
            total += t
            if abs(t) < mp.mpf(10) ** (-dps - 10) * (abs(total) + 1):
                break
        return total


def bisect(f, lo, hi, dps=50, steps=300):
    """Plain bisection to ~10^-(dps-5); f must change sign on [lo, hi]."""
    with mp.workdps(dps):
        lo = mp.mpf(lo)
        hi = mp.mpf(hi)
        flo = f(lo)
        assert flo * f(hi) < 0, "oracle bisection needs a sign change"
        for _ in range(steps):
            mid = (lo + hi) / 2
            fm = f(mid)
            if fm == 0:
                return mid
            if flo * fm < 0:
                hi = mid
            else:
                lo, flo = mid, fm
            if hi - lo < mp.mpf(10) ** (-(dps - 5)):
                break
        return (lo + hi) / 2


def first_airy_zero(dps=50):
    """First zero magnitude of Ai via bisection on the series oracle."""
    return bisect(lambda t: airy_series(-t, dps=dps)[0], 2.0, 2.5, dps=dps)


def bessel_zero_oracle(m, k_bracket, dps=50):
    """A Bessel zero via bisection on the series oracle within a given bracket."""
    lo, hi = k_bracket
    return bisect(lambda x: bessel_series(m, x, dps=dps), lo, hi, dps=dps)


def airy_cheb_table(cut=8, scaled_from=2, degree=16, dps=40):
    """Chebyshev coefficients of Ai, Ai', Bi, Bi' on the unit pieces of [-cut, cut].

    Entry ``[p, k, f]`` is the coefficient of ``T_k(t)`` for function ``f``
    on piece ``p`` = [p - cut, p - cut + 1], with ``t = 2 (x - mid)`` and the
    constant term halved, so the piece's value is ``sum_k c_k T_k(t)``.
    Pieces from ``scaled_from`` up hold Ai e^xi, Ai' e^xi, Bi e^-xi and
    Bi' e^-xi (xi = (2/3) x^(3/2)); the pieces below hold the raw values.
    Each coefficient is the cosine sum over the ``degree + 1`` first-kind
    Chebyshev nodes, with mpmath's ``airyai``/``airybi`` at ``dps`` digits.
    Regenerate the shipped table from ``tests/`` with
    ``python -c "import numpy, oracles; numpy.save('../src/starklayer/_airy_cheb.npy', oracles.airy_cheb_table())"``.
    """
    n = degree + 1
    table = np.empty((2 * cut, n, 4))
    with mp.workdps(dps):
        theta = [mp.pi * (i + mp.mpf(0.5)) / n for i in range(n)]
        for p in range(2 * cut):
            lo = p - cut
            rows = []
            for th in theta:
                x = lo + (1 + mp.cos(th)) / 2
                f = [mp.airyai(x), mp.airyai(x, derivative=1),
                     mp.airybi(x), mp.airybi(x, derivative=1)]
                if lo >= scaled_from:
                    e = mp.exp(2 * x ** mp.mpf(1.5) / 3)
                    f = [f[0] * e, f[1] * e, f[2] / e, f[3] / e]
                rows.append(f)
            for k in range(n):
                for j in range(4):
                    c = 2 * mp.fsum(row[j] * mp.cos(k * th) for row, th in zip(rows, theta)) / n
                    table[p, k, j] = c / 2 if k == 0 else c
    return table
