"""Special-function kernel: Airy pairs, Bessel J, their zeros, and quadrature.

Everything downstream (transverse spectra, analytic brackets, variational
certificates) leans on the accuracy guarantees of this module, so the
tolerances live here in one place (``TOLERANCES``).

Evaluation strategy
-------------------
* Airy functions: for ``|x| <= 8``, degree-16 Chebyshev interpolants of Ai,
  Ai', Bi and Bi' on the 16 unit pieces of [-8, 8], shipped as
  ``_airy_cheb.npy`` (generated from mpmath by ``tests/oracles.py``) and
  summed by one Clenshaw recurrence for all four functions.  Pieces below
  ``x = 2`` hold the raw values; the pieces above hold the scaled values
  ``Ai*e^xi`` and ``Bi*e^-xi``, which are smooth there (``x**1.5`` is not
  analytic at 0) and carry the decaying solution without the cancellation a
  raw fit would suffer.  Exponentially scaled asymptotic expansions for
  ``x > 8``; modulus/phase asymptotics for ``x < -8`` with the phase carried
  in extended precision.  For ``x > 0`` results are stored scaled by
  ``exp(±xi)``, ``xi = (2/3) x**1.5``, so both the decaying and the growing
  solution stay representable for ``x`` up to at least ``1e4``.
* Airy zeros: ``scipy.special.ai_zeros``, which returns the first n zeros
  of Ai and of Ai'; the n-th is the last of them.
* Bessel ``J_m``: ``scipy.special.jv``, behind the order cap.
* Bessel zeros: ``scipy.special.jn_zeros``, behind the order and index caps.
  Its first 100 zeros of every order ``m <= 64`` ship with the package in
  ``_jn_zeros.npy``; only a zero of index above 100 calls scipy.  Zeros are
  memoized in a lock-protected table, filled a whole prefix of indices at a
  time.  ``scipy.special`` is imported on first use (an Airy-zero or
  ``bessel_j`` call, or a zero-table miss above the shipped prefix), so the
  Airy-function, quadrature and shipped-zero paths never load scipy.  Each
  shipped table is read on its first use, not at import.

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
    "AiryPair",
    "BesselZeroTable",
    "QuadratureError",
    "UnsupportedOrderError",
    "airy",
    "airy_grid",
    "airy_ai_zero",
    "airy_aip_zero",
    "bessel_j",
    "bessel_zero",
    "integrate",
    "TOLERANCES",
]

TOLERANCES = {
    "airy_rel": 1e-10,            # airy(): relative (envelope-relative for x<0)
    "bessel_rel": 1e-10,          # bessel_j(): envelope-relative, x <= 1e3
    "bessel_zero_abs": 1e-10,     # bessel_zero(): absolute
    "wronskian": 1e-10,           # |pi*(Ai*Bi' - Ai'*Bi) - 1|
    "quadrature_default": 1e-10,  # integrate(): absolute, when not overridden
}

MAX_BESSEL_ORDER = 64
MAX_BESSEL_ZERO_INDEX = 1000

MAX_CALL_POINTS = 1 << 15   # abscissae per kernel or integrand call (airy_grid: about 6 MB)

_SERIES_CUT = 8.0         # Chebyshev table for |x| <= cut, asymptotics beyond
_CHEB_SCALED_FROM = 2.0   # table pieces from here up hold scaled values
_ASYM_TERMS = 40

_PI_LD = np.longdouble("3.141592653589793238462643383279502884")

# u_k, v_k coefficients of the Airy asymptotic expansions.
_AIRY_U = [1.0]
_AIRY_V = [1.0]
for _k in range(1, _ASYM_TERMS + 1):
    _uk = _AIRY_U[-1] * (6 * _k - 5) * (6 * _k - 3) * (6 * _k - 1) / (216.0 * _k * (2 * _k - 1))
    _AIRY_U.append(_uk)
    _AIRY_V.append(_uk * (6 * _k + 1) / (1.0 - 6 * _k))
del _k, _uk


class UnsupportedOrderError(ValueError):
    """Bessel order or zero index outside the supported caps."""


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to converge; carries the best estimate."""

    def __init__(self, message, best_estimate):
        super().__init__(message)
        self.best_estimate = best_estimate


@dataclass(frozen=True)
class AiryPair:
    """Values of Ai, Ai', Bi, Bi' at ``x`` in exponentially scaled form.

    For ``x > 0`` the stored fields are ``Ai*e^xi``, ``Ai'*e^xi``,
    ``Bi*e^-xi``, ``Bi'*e^-xi`` with ``scale_exp = xi = (2/3) x**1.5``;
    for ``x <= 0`` the raw values are stored and ``scale_exp = 0``.
    """

    x: float
    ai: float
    aip: float
    bi: float
    bip: float
    scale_exp: float

    def wronskian_residual(self) -> float:
        """``pi*(Ai*Bi' - Ai'*Bi) - 1`` formed from scaled values (exact cancellation of exponents)."""
        return math.pi * (self.ai * self.bip - self.aip * self.bi) - 1.0


def _airy_cheb(x):
    """(n, 4) Ai, Ai', Bi, Bi' on ``|x| <= _SERIES_CUT`` from the shipped Chebyshev table.

    One Clenshaw recurrence evaluates all four functions, reading one degree
    of coefficients per step.  The values are scaled (see :class:`AiryPair`)
    from ``_CHEB_SCALED_FROM`` up and raw below it.
    """
    coef = _shipped("_airy_cheb.npy")
    piece = (np.minimum(np.floor(x), _SERIES_CUT - 1.0) + _SERIES_CUT).astype(np.intp)
    t = 2.0 * (x - (piece - (_SERIES_CUT - 0.5)))[:, None]
    b1 = np.zeros((x.size, 4))
    b2 = np.zeros((x.size, 4))
    for k in range(coef.shape[1] - 1, -1, -1):
        # b_k = c_k + 2 t b_{k+1} - b_{k+2}, written over b_{k+2}; the value
        # sum c_k T_k(t) is the last step, which takes t for 2 t.
        np.subtract(coef[piece, k], b2, out=b2)
        b2 += (2.0 * t if k else t) * b1
        b1, b2 = b2, b1
    return b1


def _airy_asym_pos(x):
    """Scaled Ai, Ai', Bi, Bi' for ``x > 8`` from the exponential asymptotics."""
    xi = (2.0 / 3.0) * x ** 1.5
    z = 1.0 / xi
    x4 = x ** 0.25
    sa = np.zeros_like(x)
    sb = np.zeros_like(x)
    sc = np.zeros_like(x)
    sd = np.zeros_like(x)
    zk = np.ones_like(x)
    prev = np.full_like(x, np.inf)
    active = np.ones_like(x, dtype=bool)
    for k in range(_ASYM_TERMS + 1):
        tu = _AIRY_U[k] * zk
        tv = _AIRY_V[k] * zk
        active = active & (np.abs(tu) < prev)
        sgn = 1.0 if k % 2 == 0 else -1.0
        sa = sa + np.where(active, sgn * tu, 0.0)
        sb = sb + np.where(active, tu, 0.0)
        sc = sc + np.where(active, sgn * tv, 0.0)
        sd = sd + np.where(active, tv, 0.0)
        prev = np.abs(tu)
        zk = zk * z
    sp = math.sqrt(math.pi)
    ai = sa / (2.0 * sp * x4)
    bi = sb / (sp * x4)
    aip = -sc * x4 / (2.0 * sp)
    bip = sd * x4 / sp
    return ai, aip, bi, bip, xi


def _airy_asym_neg(x):
    """Raw Ai, Ai', Bi, Bi' for ``x < -8`` from modulus/phase asymptotics.

    The phase ``zeta + pi/4`` is reduced mod 2*pi in extended precision; the
    residual phase rounding is ``~|zeta| * 1e-19``.
    """
    t = -x
    t_ld = t.astype(np.longdouble)
    zeta_ld = (np.longdouble(2) / np.longdouble(3)) * t_ld ** np.longdouble(1.5)
    theta = np.mod(zeta_ld + _PI_LD / 4, 2 * _PI_LD).astype(np.float64)
    zeta = zeta_ld.astype(np.float64)

    z2 = 1.0 / (zeta * zeta)
    p_sum = np.zeros_like(t)
    q_sum = np.zeros_like(t)
    r_sum = np.zeros_like(t)
    s_sum = np.zeros_like(t)
    zk = np.ones_like(t)
    prev = np.full_like(t, np.inf)
    active = np.ones_like(t, dtype=bool)
    for k in range(_ASYM_TERMS // 2):
        tp = _AIRY_U[2 * k] * zk
        tq = _AIRY_U[2 * k + 1] * zk / zeta
        tr = _AIRY_V[2 * k] * zk
        ts = _AIRY_V[2 * k + 1] * zk / zeta
        active = active & (np.abs(tp) < prev)
        sgn = 1.0 if k % 2 == 0 else -1.0
        p_sum = p_sum + np.where(active, sgn * tp, 0.0)
        q_sum = q_sum + np.where(active, sgn * tq, 0.0)
        r_sum = r_sum + np.where(active, sgn * tr, 0.0)
        s_sum = s_sum + np.where(active, sgn * ts, 0.0)
        prev = np.abs(tp)
        zk = zk * z2

    sp = math.sqrt(math.pi)
    t4 = t ** 0.25
    c = np.cos(theta)
    s = np.sin(theta)
    ai = (s * p_sum - c * q_sum) / (sp * t4)
    bi = (c * p_sum + s * q_sum) / (sp * t4)
    aip = -(c * r_sum + s * s_sum) * t4 / sp
    bip = (s * r_sum - c * s_sum) * t4 / sp
    return ai, aip, bi, bip


def airy_grid(x):
    """Vectorized Airy evaluation.

    Returns ``(ai, aip, bi, bip, scale_exp)`` arrays under the same scaling
    contract as :class:`AiryPair`.  Points with ``|x| <= 8`` are summed from
    the shipped Chebyshev table (within 2e-15 of the scaled value, or of the
    envelope for ``x < 0``), the others by the asymptotic expansions.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("airy requires finite arguments")
    shape = x.shape
    x = np.atleast_1d(x)

    ai = np.empty_like(x)
    aip = np.empty_like(x)
    bi = np.empty_like(x)
    bip = np.empty_like(x)
    scale = np.zeros_like(x)

    ser = np.abs(x) <= _SERIES_CUT
    pos = x > _SERIES_CUT
    neg = x < -_SERIES_CUT

    if np.any(ser):
        xs = x[ser]
        a, ap, b, bp = _airy_cheb(xs).T
        xi = np.where(xs > 0.0, (2.0 / 3.0) * np.abs(xs) ** 1.5, 0.0)
        es = np.where(xs < _CHEB_SCALED_FROM, np.exp(xi), 1.0)
        ai[ser] = a * es
        aip[ser] = ap * es
        bi[ser] = b / es
        bip[ser] = bp / es
        scale[ser] = xi
    if np.any(pos):
        a, ap, b, bp, xi = _airy_asym_pos(x[pos])
        ai[pos] = a
        aip[pos] = ap
        bi[pos] = b
        bip[pos] = bp
        scale[pos] = xi
    if np.any(neg):
        a, ap, b, bp = _airy_asym_neg(x[neg])
        ai[neg] = a
        aip[neg] = ap
        bi[neg] = b
        bip[neg] = bp

    ai = ai.reshape(shape)
    aip = aip.reshape(shape)
    bi = bi.reshape(shape)
    bip = bip.reshape(shape)
    scale = scale.reshape(shape)
    return ai, aip, bi, bip, scale


def airy(x: float) -> AiryPair:
    """Airy pair at a single point; see :class:`AiryPair` for the scaling."""
    a, ap, b, bp, s = airy_grid(np.array([float(x)]))
    return AiryPair(float(x), float(a[0]), float(ap[0]), float(b[0]), float(bp[0]), float(s[0]))


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
# Bessel functions of the first kind
# ---------------------------------------------------------------------------

def bessel_j(m: int, x: float) -> float:
    """Bessel function of the first kind ``J_m(x)`` for ``0 <= m <= 64``, ``x >= 0``.

    Envelope-relative accuracy ``<= 1e-10`` for ``x <= 1e3``.
    """
    m = int(m)
    if m < 0 or m > MAX_BESSEL_ORDER:
        raise UnsupportedOrderError(f"order {m} outside supported range 0..{MAX_BESSEL_ORDER}")
    x = float(x)
    if not (x >= 0.0 and math.isfinite(x)):
        raise ValueError("argument must be finite and nonnegative")
    import scipy.special
    return float(scipy.special.jv(m, x))


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
