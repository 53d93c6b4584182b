"""Special-function kernel: Airy functions, Bessel zeros, and quadrature.

Everything downstream (transverse spectra, analytic brackets, variational
certificates) leans on the accuracy guarantees of this module, so the
tolerances live here in one place (``TOLERANCES``).

Evaluation strategy
-------------------
* Airy functions: degree-16 Chebyshev interpolants of Ai, Ai', Bi and Bi'
  in 18 pieces, shipped as ``_airy_cheb.npy`` (generated from mpmath by
  ``tests/oracles.py``) and summed by one Clenshaw recurrence for all four
  functions and all points.  The 16 unit pieces of [-8, 8] hold the raw
  values below ``x = 2`` and the scaled values ``Ai*e^xi`` and ``Bi*e^-xi``
  above, which are smooth there (``x**1.5`` is not analytic at 0) and carry
  the decaying solution without the cancellation a raw fit would suffer.
  Beyond ``|x| = 8`` one piece on each side is a fit in
  ``v = (8/|x|)**1.5``: for ``x > 8`` of the scaled values over their
  leading asymptotic terms, for ``x < -8`` of the modulus and of the phase
  less its leading term (DLMF 9.8), that term being reduced in extended
  precision.  For ``x > 0`` results are stored scaled by ``exp(±xi)``,
  ``xi = (2/3) x**1.5``, so both the decaying and the growing solution stay
  representable for ``x`` up to at least ``1e4``.  ``airy_phase`` gives the
  modulus-phase form, the phases less their leading term, which past -8 are
  the far piece's phase rows, unreduced, with their Chebyshev derivative.
* Airy zeros: ``scipy.special.ai_zeros``, which returns the first n zeros
  of Ai and of Ai'; the n-th is read from one cached ``ai_zeros(max(n, 100))``.
* Bessel zeros: the first 100 zeros of every order ``m <= 64``
  (``scipy.special.jn_zeros``) ship with the package in ``_jn_zeros.npy``;
  ``bessel_zero`` reads them behind the order and index caps, and
  ``merged_bessel_zeros`` sorts those of all orders once, up to ``j_{64,1}``.
  ``scipy.special`` is imported on an Airy-zero call only, so the
  Airy-function, quadrature and Bessel-zero paths never load scipy.  Each
  shipped table is read on its first use, not at import.

Relative-error statements for the oscillatory regimes are with respect to the
local envelope (any fixed-precision value has unbounded relative error at a
zero crossing).
"""

from __future__ import annotations

import math
from functools import cache
from pathlib import Path
from types import SimpleNamespace

import numpy as np

__all__ = [
    "QuadratureError",
    "UnsupportedOrderError",
    "airy_grid",
    "airy_phase",
    "airy_ai_zero",
    "airy_aip_zero",
    "bessel_zero",
    "merged_bessel_zeros",
    "integrate",
    "TOLERANCES",
]

TOLERANCES = {
    "airy_rel": 1e-10,         # airy_grid(): relative (envelope-relative for x<0)
    "bessel_zero_abs": 1e-10,  # bessel_zero(): absolute
    "wronskian": 1e-10,        # |pi*(Ai*Bi' - Ai'*Bi) - 1|
}

MAX_BESSEL_ORDER = 64
MAX_BESSEL_ZERO_INDEX = 100

MAX_CALL_POINTS = 1 << 15   # caps integrate() only

_CUT = 8                  # unit table pieces on [-cut, cut], one far piece each side
_CHEB_SCALED_FROM = 2.0   # unit pieces from here up hold scaled values

_SQRT_PI = math.sqrt(math.pi)
_PI_LD = np.longdouble("3.141592653589793238462643383279502884")


class UnsupportedOrderError(ValueError):
    """Bessel order or zero index outside the supported caps."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge; carries the best estimate."""

    def __init__(self, message, best_estimate):
        super().__init__(message)
        self.best_estimate = best_estimate


def _clenshaw(piece, t):
    """(n, 4) sums ``sum_k c_k T_k(t)`` over the shipped table's rows ``piece``.

    One recurrence evaluates all four functions of every point, reading one
    degree of coefficients per step.
    """
    coef = _shipped("_airy_cheb.npy")
    t = t[:, None]
    b1 = np.zeros((t.size, 4))
    b2 = np.zeros((t.size, 4))
    for k in range(coef.shape[1] - 1, -1, -1):
        # b_k = c_k + 2 t b_{k+1} - b_{k+2}, written over b_{k+2}; the value
        # sum c_k T_k(t) is the last step, which takes t for 2 t.
        np.subtract(coef[piece, k], b2, out=b2)
        b2 += (2.0 * t if k else t) * b1
        b1, b2 = b2, b1
    return b1


@cache
def _far_phase_rows() -> np.ndarray:
    """The x < -8 piece's two phase rows and their t-derivatives, as a (degree, 4) table.

    ``d_{k-1} = d_{k+1} + 2 k c_k``, then ``d_0`` halved: the table's sum convention.
    """
    c = _shipped("_airy_cheb.npy")[2 * _CUT + 1, :, 2:]
    d = np.zeros((c.shape[0] + 1, 2))
    for k in range(c.shape[0] - 1, 0, -1):
        d[k - 1] = d[k + 1] + 2.0 * k * c[k]
    d[0] *= 0.5
    return np.concatenate((c, d[:-1]), axis=1)


def airy_grid(x):
    """Ai, Ai', Bi and Bi' at every point of ``x``, exponentially scaled.

    Returns ``(ai, aip, bi, bip, scale_exp)`` arrays of the shape of ``x``:
    for ``x > 0`` ``Ai*e^xi``, ``Ai'*e^xi``, ``Bi*e^-xi``, ``Bi'*e^-xi`` and
    ``xi = (2/3) x**1.5``, whose factors cancel in the Wronskian; for
    ``x <= 0`` the raw values and 0.  Non-finite input raises ``ValueError``.
    Each point is summed from the shipped Chebyshev table by one Clenshaw
    recurrence: a unit piece for ``|x| <= 8``, one far piece on each side
    beyond, in ``t = 2 (8/|x|)**1.5 - 1``.  Values are within 2e-15 of the
    scaled value for ``x >= 0`` and of the envelope for ``x < 0``, up to
    ``|x| = 400``; further out the long-double phase ``zeta`` rounds to about
    ``|zeta| * 1e-19``.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("airy requires finite arguments")
    shape = x.shape
    x = x.reshape(-1)

    pos = x > _CUT
    neg = x < -_CUT
    far = pos | neg
    near = ~far
    piece = np.where(pos, 2 * _CUT, 2 * _CUT + 1)
    t = np.empty_like(x)
    xs = x[near]
    piece[near] = p = (np.minimum(np.floor(xs), _CUT - 1.0) + _CUT).astype(np.intp)
    t[near] = 2.0 * (xs - (p - (_CUT - 0.5)))
    t[far] = 2.0 * (_CUT / np.abs(x[far])) ** 1.5 - 1.0
    a, ap, b, bp = _clenshaw(piece, t).T

    ai = np.empty_like(x)
    aip = np.empty_like(x)
    bi = np.empty_like(x)
    bip = np.empty_like(x)
    scale = np.zeros_like(x)

    # Unit pieces: raw values below _CHEB_SCALED_FROM, scaled ones above.
    xi = np.where(xs > 0.0, (2.0 / 3.0) * np.abs(xs) ** 1.5, 0.0)
    es = np.where(xs < _CHEB_SCALED_FROM, np.exp(xi), 1.0)
    ai[near] = a[near] * es
    aip[near] = ap[near] * es
    bi[near] = b[near] / es
    bip[near] = bp[near] / es
    scale[near] = xi

    # x > 8: each fit is a scaled value over its leading asymptotic term
    # (1 / (2 sqrt(pi) x**(1/4)) for Ai); multiply that term back in.
    xp = x[pos]
    x4 = xp ** 0.25
    ai[pos] = a[pos] / (2.0 * _SQRT_PI * x4)
    aip[pos] = -ap[pos] * x4 / (2.0 * _SQRT_PI)
    bi[pos] = b[pos] / (_SQRT_PI * x4)
    bip[pos] = bp[pos] * x4 / _SQRT_PI
    scale[pos] = (2.0 / 3.0) * xp ** 1.5

    # x < -8: modulus and phase.  The phases' leading terms are reduced to
    # [-pi, pi) in extended precision (residual rounding ~|zeta| * 1e-19).
    s = -x[neg]
    s_ld = s.astype(np.longdouble)
    zeta = 2 * s_ld * np.sqrt(s_ld) / 3

    def reduced(lead):
        return (np.mod(lead - zeta + _PI_LD, 2 * _PI_LD) - _PI_LD).astype(np.float64)
    theta = reduced(_PI_LD / 4) + b[neg]
    phi = reduced(3 * _PI_LD / 4) + bp[neg]
    s4 = s ** 0.25
    m = a[neg] / (_SQRT_PI * s4)
    n = ap[neg] * s4 / _SQRT_PI
    ai[neg] = m * np.cos(theta)
    bi[neg] = m * np.sin(theta)
    aip[neg] = n * np.cos(phi)
    bip[neg] = n * np.sin(phi)

    return tuple(v.reshape(shape) for v in (ai, aip, bi, bip, scale))


def airy_phase(x):
    """The modulus-phase form of DLMF 9.8 at every point of ``x``, from one :func:`airy_grid` call.

    Returns ``(m, n, b, c, db, dc)``: ``Ai + i Bi = M e^{i theta}``,
    ``Ai' + i Bi' = N e^{i phi}``, ``m = M e^-xi``, ``n = N e^-xi``, the phases
    less their leading terms, ``b = theta - pi/4 + psi`` and
    ``c = phi - 3 pi/4 + psi`` with ``psi = (2/3) max(-x, 0)**1.5`` (left to the
    caller, who can difference it exactly), and their x-derivatives.  Past
    ``x = -8`` these are the far piece's phase rows and their Chebyshev derivative.
    """
    x = np.asarray(x, dtype=np.float64)
    ai, aip, bi, bip, xi = airy_grid(x)
    e = np.exp(-2.0 * xi)
    m = np.hypot(ai * e, bi)
    n = np.hypot(aip * e, bip)
    neg = x < -_CUT
    root = np.sqrt(np.maximum(-x, 0.0))
    # (Ai, Bi) turned back by the leading phase in long double, so that b is
    # the angle of a vector near the real axis, not a difference of angles.
    turn = np.exp(1j * (2 * np.sqrt(np.maximum(-x, 0.0).astype(np.longdouble)) ** 3 / 3))
    b = np.angle((ai * e + 1j * bi) * turn * np.exp(-0.25j * _PI_LD)).astype(np.float64)
    c = np.angle((aip * e + 1j * bip) * turn * np.exp(-0.75j * _PI_LD)).astype(np.float64)
    with np.errstate(over="ignore"):   # m, n past 1e154 give slopes of 0
        db = e / (math.pi * m * m) - root
        dc = -x * e / (math.pi * n * n) - root
    s = -x[neg]
    t = 2.0 * (_CUT / s) ** 1.5 - 1.0
    coef = _far_phase_rows()   # one piece, so T_k(t) = cos(k arccos t) as one product
    rows = np.cos(np.arccos(t)[:, None] * np.arange(coef.shape[0])) @ coef
    b[neg], c[neg] = rows[:, 0], rows[:, 1]
    db[neg], dc[neg] = (rows[:, 2:] * (1.5 * (t + 1.0) / s)[:, None]).T
    return m, n, b, c, db, dc


@cache
def _ai_zero_table(count: int):
    import scipy.special
    return scipy.special.ai_zeros(count)


def _ai_zero(n: int, which: int) -> float:
    """The n-th zero of Ai (``which`` 0) or Ai' (1), from one memoized ``ai_zeros``.

    The n-th entry of a longer ``ai_zeros`` list is the last of
    ``ai_zeros(n)``, bit for bit, so one table of 100 serves every
    ``levels --count``.
    """
    n = int(n)
    if n < 1:
        raise ValueError("zero index must be >= 1")
    return float(_ai_zero_table(max(n, 100))[which][n - 1])


def airy_ai_zero(n: int) -> float:
    """Magnitude ``t_n`` of the n-th negative zero of Ai (``Ai(-t_n) = 0``)."""
    return -_ai_zero(n, 0)


def airy_aip_zero(n: int) -> float:
    """Magnitude ``t'_n`` of the n-th negative zero of Ai' (``Ai'(-t'_n) = 0``)."""
    return -_ai_zero(n, 1)


# ---------------------------------------------------------------------------
# Zeros of the Bessel functions of the first kind
# ---------------------------------------------------------------------------

@cache
def _shipped(name: str) -> np.ndarray:
    """A table shipped with the package, read on first use.

    ``_jn_zeros.npy``: ``[jn_zeros(m, 100) for m in range(MAX_BESSEL_ORDER + 1)]``.
    ``_airy_cheb.npy``: the Chebyshev coefficients of ``tests/oracles.airy_cheb_table``.
    """
    return np.load(Path(__file__).with_name(name))


def _shipped_zero(m: int, k: int):
    """``j_{m,k}`` from ``_jn_zeros.npy``, or None for a pair outside it."""
    shipped = _shipped("_jn_zeros.npy")
    if 0 <= m < shipped.shape[0] and 1 <= k <= shipped.shape[1]:
        return float(shipped[m, k - 1])
    return None


# Kept only for the benchmark tracer, which calls ``_DEFAULT_ZEROS.get(m, k)``
# before each ``bessel_zero``; it goes with the tracer's other names (ROADMAP
# item 4).
_DEFAULT_ZEROS = SimpleNamespace(get=_shipped_zero)


def bessel_zero(m: int, k: int) -> float:
    """k-th positive zero of ``J_m`` (``m <= 64``, ``k <= 100``): ``jn_zeros(m, k)[-1]``, shipped."""
    m = int(m)
    k = int(k)
    if m < 0 or m > MAX_BESSEL_ORDER:
        raise UnsupportedOrderError(f"order {m} outside supported range 0..{MAX_BESSEL_ORDER}")
    if k < 1 or k > MAX_BESSEL_ZERO_INDEX:
        raise UnsupportedOrderError(f"zero index {k} outside supported range 1..{MAX_BESSEL_ZERO_INDEX}")
    return _shipped_zero(m, k)


@cache
def merged_bessel_zeros() -> tuple:
    """Every zero ``j_{m,k} <= j_{64,1}`` of ``J_0 .. J_64`` as ``(x, m, k)``, ascending.

    Ties (none exist analytically) go to the smaller order.  The list is
    complete up to ``j_{64,1}``: every higher order starts above it, and J_0,
    the densest order, has 23 zeros below it, far inside the 100 shipped.
    Sorted from ``_jn_zeros.npy`` on first use.
    """
    shipped = _shipped("_jn_zeros.npy")
    m, k = np.nonzero(shipped <= shipped[MAX_BESSEL_ORDER, 0])
    x = shipped[m, k]
    order = np.lexsort((m, x))
    return tuple(zip(x[order].tolist(), m[order].tolist(), (k[order] + 1).tolist()))


# ---------------------------------------------------------------------------
# Adaptive composite Simpson quadrature
# ---------------------------------------------------------------------------

_QUAD_MAX_DEPTH = 60


def integrate(f, lo: float, hi: float, tol: float, breakpoints=()) -> float:
    """Adaptive composite Simpson estimate of ``int_lo^hi f`` with absolute error <= tol.

    ``f`` maps an array of abscissae to an array of the same shape.  The
    interval, split at the kinks in ``breakpoints``, is bisected breadth first,
    one ``f`` call per depth, and summed in depth-first order.  Past depth
    ``_QUAD_MAX_DEPTH``, or when a depth would need more than ``MAX_CALL_POINTS``
    abscissae, raises :class:`QuadratureError` carrying the whole estimate.
    """
    lo, hi = float(lo), float(hi)
    if not (lo < hi):
        raise ValueError("integrate requires lo < hi")
    if not tol > 0.0:
        raise ValueError("integrate requires tol > 0")
    pts = np.array([lo] + sorted(p for p in map(float, breakpoints) if lo < p < hi) + [hi])

    a, b = pts[:-1], pts[1:]
    m = 0.5 * (a + b)
    vals = f(np.concatenate((pts, m)))
    fa, fb, fm = vals[:a.size], vals[1:pts.size], vals[pts.size:]
    whole = (b - a) * (fa + 4.0 * fm + fb) / 6.0
    tol = tol / a.size
    tiers = []   # per depth: (estimate of every interval, indices of the split ones)
    for depth in range(_QUAD_MAX_DEPTH + 1):
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        vals = f(np.concatenate((lm, rm)))
        flm, frm = vals[:a.size], vals[a.size:]
        left = (m - a) * (fa + 4.0 * flm + fm) / 6.0
        right = (b - m) * (fm + 4.0 * frm + fb) / 6.0
        delta = left + right - whole
        split = np.flatnonzero(~(np.abs(delta) <= 15.0 * tol))   # NaN stays open
        tiers.append((left + right + delta / 15.0, split))
        if split.size == 0 or depth == _QUAD_MAX_DEPTH or 4 * split.size > MAX_CALL_POINTS:
            break
        # The halves of the j-th split interval sit at 2j and 2j+1.
        halves = (np.array([a, lm, m, fa, flm, fm, left])[:, split],
                  np.array([m, rm, b, fm, frm, fb, right])[:, split])
        a, m, b, fa, fm, fb, whole = np.stack(halves, axis=2).reshape(7, -1)
        tol = 0.5 * tol

    est = tiers[-1][0]   # open intervals of the last depth count with their current estimate
    for parent, split_ids in reversed(tiers[:-1]):
        parent[split_ids] = est[0::2] + est[1::2]
        est = parent
    total = 0.0
    for value in est.tolist():
        total += value
    if split.size:
        raise QuadratureError(f"quadrature failed to converge on [{lo}, {hi}]: {split.size} "
                              f"intervals open at depth {depth}", best_estimate=total)
    return total
