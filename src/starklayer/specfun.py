"""Special-function kernel: Airy pairs, Bessel J, their zeros, and quadrature.

Everything downstream (transverse spectra, analytic brackets, variational
certificates) leans on the accuracy guarantees of this module, so the
tolerances live here in one place (``TOLERANCES``).

Evaluation strategy
-------------------
* Airy functions: Maclaurin series for ``|x| <= 8`` summed in compensated
  double-double arithmetic (the two fundamental solutions cancel to
  ``~exp(-2*xi)`` of their size on the positive axis, which plain doubles
  cannot survive); exponentially scaled asymptotic expansions for ``x > 8``;
  modulus/phase asymptotics for ``x < -8`` with the phase carried in extended
  precision.  For ``x > 0`` results are stored scaled by ``exp(±xi)``,
  ``xi = (2/3) x**1.5``, so both the decaying and the growing solution stay
  representable for ``x`` up to at least ``1e4``.
* Bessel ``J_m`` and its zeros: ``scipy.special.jv`` and
  ``scipy.special.jn_zeros``, behind the order and index caps.  Zeros are
  memoized in a lock-protected table, filled a whole prefix of indices at a
  time.  ``scipy.special`` is imported on first use (the first ``bessel_j``
  call or zero-table miss), so the Airy and quadrature paths never load scipy.

Relative-error statements for the oscillatory regimes are with respect to the
local envelope (any fixed-precision value has unbounded relative error at a
zero crossing).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from . import _dd

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

MAX_CALL_POINTS = 1 << 15   # abscissae per kernel or integrand call (airy_grid: about 12 MB)

_SERIES_CUT = 8.0         # Maclaurin series for |x| <= cut, asymptotics beyond
_SERIES_TERMS = 56
_ASYM_TERMS = 40

# Ai(0), Ai'(0) and sqrt(3) as double-double (hi, lo) pairs.
_AI0 = (0.3550280538878172, 2.05233632436212e-17)
_AIP0 = (-0.2588194037928068, 2.522243111610832e-17)
_AIP0_NEG = (0.2588194037928068, -2.522243111610832e-17)
_SQRT3 = (1.7320508075688772, 1.0035084221806903e-16)

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


def _airy_series(x):
    """Raw Ai, Ai', Bi, Bi' on ``|x| <= 8`` by double-double Maclaurin series."""
    zero = np.zeros_like(x)
    x_dd = (x, zero)
    x2 = _dd.two_prod(x, x)
    x3 = _dd.mul(x2, x_dd)

    t = (np.ones_like(x), zero)          # f terms
    u = (x, zero)                        # g terms
    s = _dd.div_float(x2, 2.0)           # f' terms, starts at k=1
    v = (np.ones_like(x), zero)          # g' terms

    f_sum, g_sum, fp_sum, gp_sum = t, u, s, v
    for k in range(1, _SERIES_TERMS + 1):
        t = _dd.div_float(_dd.mul(t, x3), float((3 * k) * (3 * k - 1)))
        u = _dd.div_float(_dd.mul(u, x3), float((3 * k + 1) * (3 * k)))
        if k >= 2:
            s = _dd.div_float(_dd.mul(s, x3), float((3 * k - 1) * (3 * k - 3)))
            fp_sum = _dd.add(fp_sum, s)
        v = _dd.div_float(_dd.mul(v, x3), float((3 * k) * (3 * k - 2)))
        f_sum = _dd.add(f_sum, t)
        g_sum = _dd.add(g_sum, u)
        gp_sum = _dd.add(gp_sum, v)
        if k % 8 == 0 and np.max(np.abs(t[0])) < 1e-35 * max(np.max(np.abs(f_sum[0])), 1.0):
            break

    ai = _dd.add(_dd.mul(_AI0, f_sum), _dd.mul(_AIP0, g_sum))
    aip = _dd.add(_dd.mul(_AI0, fp_sum), _dd.mul(_AIP0, gp_sum))
    bi = _dd.mul(_SQRT3, _dd.add(_dd.mul(_AI0, f_sum), _dd.mul(_AIP0_NEG, g_sum)))
    bip = _dd.mul(_SQRT3, _dd.add(_dd.mul(_AI0, fp_sum), _dd.mul(_AIP0_NEG, gp_sum)))
    return _dd.to_float(ai), _dd.to_float(aip), _dd.to_float(bi), _dd.to_float(bip)


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
    contract as :class:`AiryPair`.
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
        a, ap, b, bp = _airy_series(xs)
        xi = np.where(xs > 0.0, (2.0 / 3.0) * np.abs(xs) ** 1.5, 0.0)
        es = np.exp(xi)
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


def _ai_neg(t: float) -> float:
    """Ai(-t) for t > 0 (raw; the negative axis is never scaled)."""
    a, _, _, _, _ = airy_grid(np.array([-t]))
    return float(a[0])


def _aip_neg(t: float) -> float:
    _, ap, _, _, _ = airy_grid(np.array([-t]))
    return float(ap[0])


def _newton_bracketed(f, fprime, lo, hi, x0, tol):
    """Safeguarded Newton: steps are clipped to [lo, hi], bisection fallback."""
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise RuntimeError("root bracket does not straddle a sign change")
    x = min(max(x0, lo), hi)
    for _ in range(100):
        fx = f(x)
        if fx == 0.0:
            return x
        if flo * fx < 0.0:
            hi = x
        else:
            lo, flo = x, fx
        dfx = fprime(x)
        step_ok = dfx != 0.0
        if step_ok:
            xn = x - fx / dfx
            step_ok = lo < xn < hi
        if not step_ok:
            xn = 0.5 * (lo + hi)
        if abs(xn - x) <= tol * max(1.0, abs(xn)):
            return xn
        x = xn
    return x


_airy_zero_cache: dict = {}
_airy_zero_lock = threading.Lock()


def airy_ai_zero(n: int) -> float:
    """Magnitude ``t_n`` of the n-th negative zero of Ai (``Ai(-t_n) = 0``)."""
    return _airy_zero_inner("ai", int(n))


def airy_aip_zero(n: int) -> float:
    """Magnitude ``t'_n`` of the n-th negative zero of Ai' (``Ai'(-t'_n) = 0``)."""
    return _airy_zero_inner("aip", int(n))


def _airy_zero_guess(kind: str, n: int) -> float:
    if kind == "ai":
        arg = 3.0 * math.pi * (4 * n - 1) / 8.0
        w = arg ** (-2.0)
        return arg ** (2.0 / 3.0) * (1.0 + w * (5.0 / 48.0 - w * (5.0 / 36.0 - w * 77125.0 / 82944.0)))
    arg = 3.0 * math.pi * (4 * n - 3) / 8.0
    w = arg ** (-2.0)
    return arg ** (2.0 / 3.0) * (1.0 - w * (7.0 / 48.0 - w * (35.0 / 288.0 - w * 181223.0 / 207360.0)))


def _airy_zero_inner(kind: str, n: int) -> float:
    if n < 1:
        raise ValueError("zero index must be >= 1")
    with _airy_zero_lock:
        if (kind, n) in _airy_zero_cache:
            return _airy_zero_cache[(kind, n)]
    if kind == "ai":
        f = _ai_neg
        fp = lambda t: -_aip_neg(t)  # noqa: E731
    else:
        f = _aip_neg
        fp = lambda t: float(t) * _ai_neg(t)  # via Ai'' = x Ai  # noqa: E731

    # Neighboring asymptotic guesses pin the index: the guess error is far
    # smaller than the spacing, so [lo, hi] holds exactly the n-th zero.
    guess = _airy_zero_guess(kind, n)
    g_next = _airy_zero_guess(kind, n + 1)
    hi = guess + 0.45 * (g_next - guess)
    if n >= 2:
        lo = guess - 0.45 * (guess - _airy_zero_guess(kind, n - 1))
    else:
        lo = max(0.5 * guess, 0.3)
    if f(lo) * f(hi) > 0.0:
        raise RuntimeError(f"failed to bracket Airy zero ({kind}, n={n})")
    root = _newton_bracketed(f, fp, lo, hi, guess, 1e-14)
    with _airy_zero_lock:
        _airy_zero_cache[(kind, n)] = root
    return root


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


def bessel_zero(m: int, k: int, table: BesselZeroTable | None = None) -> float:
    """k-th positive zero of ``J_m`` to ``1e-10`` absolute (``m <= 64``, ``k <= 1000``)."""
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

    import scipy.special
    # Fetching at least twice the deepest cached index keeps an ascending
    # k-sweep at O(log k) scipy calls; jn_zeros returns the same leading zeros
    # whatever the count, so the memo does not depend on the call history.
    count = min(max(k, 2 * table.highest(m)), MAX_BESSEL_ZERO_INDEX)
    zeros = [float(z) for z in scipy.special.jn_zeros(m, count)]
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
