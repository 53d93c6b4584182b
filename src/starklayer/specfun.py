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
  representable for ``x`` up to at least ``1e4``.
* Airy zeros: ``scipy.special.ai_zeros``, which returns the first n zeros
  of Ai and of Ai'; the n-th is the last of them.
* Bessel zeros: ``scipy.special.jn_zeros``, behind the order and index caps.
  Its first 100 zeros of every order ``m <= 64`` ship with the package in
  ``_jn_zeros.npy``; only a zero of index above 100 calls scipy.  Zeros are
  memoized in a lock-protected table, filled a whole prefix of indices at a
  time.  ``scipy.special`` is imported on first use (an Airy-zero call, or a
  zero-table miss above the shipped prefix), so the Airy-function,
  quadrature and shipped-zero paths never load scipy.  Each shipped table is
  read on its first use, not at import.

Relative-error statements for the oscillatory regimes are with respect to the
local envelope (any fixed-precision value has unbounded relative error at a
zero crossing).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

import numpy as np

__all__ = [
    "BesselZeroTable",
    "QuadratureError",
    "UnsupportedOrderError",
    "airy_grid",
    "airy_ai_zero",
    "airy_aip_zero",
    "bessel_zero",
    "integrate",
    "TOLERANCES",
]

TOLERANCES = {
    "airy_rel": 1e-10,         # airy_grid(): relative (envelope-relative for x<0)
    "bessel_zero_abs": 1e-10,  # bessel_zero(): absolute
    "wronskian": 1e-10,        # |pi*(Ai*Bi' - Ai'*Bi) - 1|
}

MAX_BESSEL_ORDER = 64
MAX_BESSEL_ZERO_INDEX = 1000

MAX_CALL_POINTS = 1 << 15   # caps integrate() only; a transverse norm sends airy_grid up to 262,146

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


def _ai_zeros(n: int):
    n = int(n)
    if n < 1:
        raise ValueError("zero index must be >= 1")
    import scipy.special
    return scipy.special.ai_zeros(n)


def airy_ai_zero(n: int) -> float:
    """Magnitude ``t_n`` of the n-th negative zero of Ai (``Ai(-t_n) = 0``)."""
    return -float(_ai_zeros(n)[0][-1])


def airy_aip_zero(n: int) -> float:
    """Magnitude ``t'_n`` of the n-th negative zero of Ai' (``Ai'(-t'_n) = 0``)."""
    return -float(_ai_zeros(n)[1][-1])


# ---------------------------------------------------------------------------
# Zeros of the Bessel functions of the first kind
# ---------------------------------------------------------------------------

@dataclass
class BesselZeroTable:
    """Memo table (m, k) -> k-th positive zero of J_m, internally synchronized."""

    entries: dict = field(default_factory=dict)
    _highest: dict = field(default_factory=dict, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def get(self, m: int, k: int):
        with self._lock:
            return self.entries.get((m, k))

    def put(self, m: int, k: int, value: float) -> None:
        with self._lock:
            self.entries[(m, k)] = value
            self._highest[m] = max(self._highest.get(m, 0), k)

    def highest(self, m: int) -> int:
        """Highest zero index stored for order ``m`` (0 when none)."""
        with self._lock:
            return self._highest.get(m, 0)


_DEFAULT_ZEROS = BesselZeroTable()


@cache
def _shipped(name: str) -> np.ndarray:
    """A table shipped with the package, read on first use.

    ``_jn_zeros.npy``: ``[jn_zeros(m, 100) for m in range(MAX_BESSEL_ORDER + 1)]``.
    ``_airy_cheb.npy``: the Chebyshev coefficients of ``tests/oracles.airy_cheb_table``.
    """
    return np.load(Path(__file__).with_name(name))


def bessel_zero(m: int, k: int, table: BesselZeroTable | None = None) -> float:
    """k-th positive zero of ``J_m`` to ``1e-10`` absolute (``m <= 64``, ``k <= 1000``).

    The value is ``scipy.special.jn_zeros(m, k)[-1]``.  A memo miss at
    ``k <= 100`` stores row ``m`` of the shipped table, read from
    ``_jn_zeros.npy`` on the first miss; a deeper index fetches a prefix
    from ``jn_zeros``, which returns the same leading zeros whatever the count.
    """
    m = int(m)
    k = int(k)
    if m < 0 or m > MAX_BESSEL_ORDER:
        raise UnsupportedOrderError(f"order {m} outside supported range 0..{MAX_BESSEL_ORDER}")
    if k < 1 or k > MAX_BESSEL_ZERO_INDEX:
        raise UnsupportedOrderError(f"zero index {k} outside supported range 1..{MAX_BESSEL_ZERO_INDEX}")
    if table is None:
        table = _DEFAULT_ZEROS
    cached = table.get(m, k)
    if cached is not None:
        return cached

    shipped = _shipped("_jn_zeros.npy")
    if m < shipped.shape[0] and k <= shipped.shape[1]:
        zeros = shipped[m]
    else:
        import scipy.special
        # Fetching at least twice the deepest cached index keeps an ascending
        # k-sweep at O(log k) scipy calls.
        count = min(max(k, 2 * table.highest(m)), MAX_BESSEL_ZERO_INDEX)
        zeros = scipy.special.jn_zeros(m, count)
    zeros = zeros.tolist()
    for j, z in enumerate(zeros, start=1):
        table.put(m, j, z)
    return zeros[k - 1]


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
