"""Transverse Stark operators ``-d^2/dz^2 + F z`` on ``[0, d]``.

Exact eigenvalues via Airy determinants for the pure-Dirichlet case (window
radius 0) and the Neumann-Dirichlet case (infinite window), a symmetric
finite-difference oracle, and the weak/strong-field closed-form estimates.

Both walls use one solution, ``y = [Bi(zeta_d) Ai(zeta) - Ai(zeta_d) Bi(zeta)]
e^{-xi_d}``, which vanishes at ``z = d``: its value (DD) or slope (ND) at
``z = 0`` is the determinant, and scaled to unit norm it is the eigenfunction
(``sqrt(2/d) sin(k (d - z))`` in the trig regime).  Its exponents are added
before ``exp``, so strong fields (``F**(1/3) * d`` large) never overflow.

The solve works on whole arrays.  The sign scan evaluates its lambda grid a
chunk at a time, one ``airy_grid`` call per chunk; all bracketed roots are
refined together by the Illinois method, one call per round.  For F from
1e-2 to 1e4, ``levels(count=20)`` costs 10 to 50 calls.  ``levels`` returns
eigenvalues only: an eigenfunction is normalized, by composite Simpson, and
its ``z = 0`` wall checked on the first :func:`chi` or :func:`chi_prime` call
for its level, once per ``(F, d, level)``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import specfun

__all__ = [
    "WaveguideParams",
    "BoundaryType",
    "TransverseLevel",
    "SolverError",
    "levels",
    "ground_level",
    "fd_levels_oracle",
    "asymptotic_weak",
    "asymptotic_strong",
    "strong_field_airy_level",
    "chi",
    "chi_prime",
]

LEVEL_REL_TOL = 1e-10          # eigenvalue location accuracy of levels()
BOUNDARY_RESIDUAL_TOL = 1e-8   # |chi| (or |chi'|) at the endpoints, normalized
NORM_TOL = 1e-11               # quadrature target for the L2 normalization

# Widths at which the trig switch and the first 100 trig levels are normal floats.
MIN_WIDTH, MAX_WIDTH = 1e-100, 1e100

# Below F = 1e-8 * (pi/d)^3 the Airy scaling degenerates numerically; there the
# levels are the trig ones plus the first-order shift F <z>, whose remainder
# O((F d^3)^2) is below the rounding of lam.
_TRIG_SWITCH = 1e-8

# A root is refined until its bracket is narrower than _XTOL + _RTOL * |x|
# (about four ulp), in at most _MAX_REFINE rounds.
_XTOL = 1e-300
_RTOL = 8.9e-16
_MAX_REFINE = 200


class SolverError(RuntimeError):
    """Eigenvalue bracketing/refinement failure; message reports the scan window."""


@dataclass(frozen=True)
class WaveguideParams:
    """Physical configuration: field intensity F, layer width d, window radius a."""

    F: float
    d: float
    a: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.F) and self.F >= 0.0):
            raise ValueError("field intensity F must be finite and >= 0")
        if not MIN_WIDTH <= self.d <= MAX_WIDTH:
            raise ValueError(f"layer width d must be in [{MIN_WIDTH:g}, {MAX_WIDTH:g}]")
        if not (math.isfinite(self.a) and self.a >= 0.0):
            raise ValueError("window radius a must be finite and >= 0")


class BoundaryType(enum.Enum):
    DIRICHLET_DIRICHLET = "dirichlet-dirichlet"   # window radius 0
    NEUMANN_DIRICHLET = "neumann-dirichlet"       # infinite window: Neumann at z=0


@dataclass(frozen=True)
class TransverseLevel:
    """The ``n``-th transverse eigenvalue ``lam`` for the walls ``bc``.

    Its eigenfunction is read through :func:`chi` and :func:`chi_prime`,
    which normalize it on first use.
    """

    n: int
    bc: BoundaryType
    lam: float


def _use_trig(params: WaveguideParams) -> bool:
    return params.F < _TRIG_SWITCH * (math.pi / params.d) ** 3


def _trig_lam(d: float, bc: BoundaryType, n: int, F: float = 0.0) -> float:
    """Field-free level ``k^2`` plus the first-order Stark shift ``F <z>``.

    ``<z>`` is ``d/2`` for ``sin(k z)`` (DD) and ``d/2 - 2d/((2n-1)^2 pi^2)``
    for ``cos(k z)`` (ND).  At ``F = 0`` the shift adds exactly 0.0.
    """
    if bc is BoundaryType.DIRICHLET_DIRICHLET:
        return (n * math.pi / d) ** 2 + F * (0.5 * d)
    return (((2 * n - 1) * math.pi / (2.0 * d)) ** 2
            + F * (0.5 * d - 2.0 * d / ((2 * n - 1) * math.pi) ** 2))


def _far_wall(params: WaveguideParams, lam, z, derivative: bool):
    """``y`` at every broadcast ``(lam, z)``, or its derivative in ``zeta``.

    With ``zeta = F^(1/3) z - lam / F^(2/3)``, ``e^{-xi}`` and
    ``e^{xi - 2 xi_d}`` are at most 1 since ``zeta <= zeta_d``.  The slope at
    ``d`` is ``-e^{-xi_d} / pi`` (Wronskian), so ``chi'(d) < 0``.  One
    ``airy_grid`` call takes ``zeta_d`` once per ``lam`` and every ``zeta``.
    """
    w = params.F ** (1.0 / 3.0)
    shift = np.asarray(lam, dtype=np.float64) / w ** 2
    zeta_d = w * params.d - shift
    zeta = w * np.asarray(z, dtype=np.float64) - shift
    k = zeta_d.size
    ai, aip, bi, bip, xi = specfun.airy_grid(np.concatenate((zeta_d.ravel(), zeta.ravel())))
    ai_d, bi_d, xi_d = (v[:k].reshape(zeta_d.shape) for v in (ai, bi, xi))
    a, b, xi = (v[k:].reshape(zeta.shape) for v in ((aip, bip, xi) if derivative else (ai, bi, xi)))
    return bi_d * a * np.exp(-xi) - ai_d * b * np.exp(xi - 2.0 * xi_d)


def _gap_estimate(params: WaveguideParams, lam: float) -> float:
    """Local eigenvalue spacing from the integrated density of states."""
    F, d = params.F, params.d
    if F <= 0.0:
        return 2.0 * math.pi * math.sqrt(lam) / d
    if lam > F * d:
        return math.pi * (math.sqrt(lam) + math.sqrt(lam - F * d)) / d
    return math.pi * F / math.sqrt(lam)


def _scan_roots(params: WaveguideParams, bc: BoundaryType, count: int) -> list[float]:
    """First ``count`` determinant roots: a chunked sign scan, then lockstep refinement.

    The grid steps by an eighth of the local gap, so consecutive levels are
    always separated by a grid point and each root keeps its index.  Each
    chunk of grid points costs one determinant call.
    """
    # The first level sits at the larger of the box scale (pi/2d)^2 and the
    # tilted-well scale F^(2/3); evaluating the density-of-states gap there
    # (rather than at lambda -> 0, where it blows up) keeps the first scan
    # steps below the bottom eigenvalue spacing.
    lam_floor = 0.5 * max((math.pi / (2.0 * params.d)) ** 2, 0.5 * params.F ** (2.0 / 3.0))
    max_steps = 20000 + 500 * count

    nd = bc is BoundaryType.NEUMANN_DIRICHLET
    brackets = []   # (lo, hi, f_lo, f_hi); an exact grid zero is the bracket (x, x, 0, 0)
    lam, f_prev = 0.0, np.empty(0)
    steps, chunk = 0, 8 * count + 16
    while steps < max_steps:
        grid = [lam]
        for _ in range(min(chunk, max_steps - steps)):
            lam = lam + _gap_estimate(params, max(lam, lam_floor)) / 8.0
            grid.append(lam)
        steps += len(grid) - 1
        f = np.concatenate((f_prev, _far_wall(params, np.array(grid[f_prev.size:]), 0.0, nd)))
        for i in np.flatnonzero((f[:-1] == 0.0) | (f[:-1] * f[1:] < 0.0)):
            j = i if f[i] == 0.0 else i + 1
            brackets.append((grid[i], grid[j], f[i], f[j]))
            if len(brackets) == count:
                return _refine_roots(params, bc, np.array(brackets))
        f_prev = f[-1:]
        chunk *= 2
    raise SolverError(
        f"determinant sign changed only {len(brackets)} times in scanned interval [0, {lam}] "
        f"(requested {count} levels, F={params.F}, d={params.d}, bc={bc.value})"
    )


def _refine_roots(params: WaveguideParams, bc: BoundaryType, brackets: np.ndarray) -> list[float]:
    """Refine every ``(lo, hi, f_lo, f_hi)`` bracket at once by the Illinois method.

    Regula falsi that halves the value kept at an endpoint which stays put
    twice in a row (Dowell & Jarratt, BIT 11, 1971); a secant point outside
    its bracket falls back to bisection.  Each round costs one determinant
    call over the brackets still open.  A root is done when the determinant
    vanishes at it or its bracket is narrower than ``_XTOL + _RTOL * |x|``,
    the test brentq makes.
    """
    a, b, fa, fb = (col.copy() for col in brackets.T)
    x = a.copy()
    side = np.zeros(a.shape, dtype=np.int8)   # -1: b moved last, +1: a moved last
    todo = np.flatnonzero(a < b)
    for _ in range(_MAX_REFINE):
        if not todo.size:
            break
        lo, hi, flo, fhi, last = a[todo], b[todo], fa[todo], fb[todo], side[todo]
        c = hi - fhi * (hi - lo) / (fhi - flo)
        # Stay half a tolerance inside the bracket, so that a secant point
        # which rounds onto a converged endpoint still closes the bracket.
        nudge = 0.5 * (_XTOL + _RTOL * np.abs(c))
        c = np.minimum(np.maximum(c, lo + nudge), hi - nudge)
        c = np.where((c > lo) & (c < hi), c, lo + 0.5 * (hi - lo))
        fc = _far_wall(params, c, 0.0, bc is BoundaryType.NEUMANN_DIRICHLET)
        on_hi = np.sign(fc) == np.sign(fhi)
        on_lo = ~on_hi & (fc != 0.0)
        x[todo] = c
        a[todo] = np.where(on_lo, c, lo)
        b[todo] = np.where(on_hi, c, hi)
        fa[todo] = np.where(on_lo, fc, np.where(on_hi & (last == -1), 0.5 * flo, flo))
        fb[todo] = np.where(on_hi, fc, np.where(on_lo & (last == 1), 0.5 * fhi, fhi))
        side[todo] = np.where(on_hi, -1, np.where(on_lo, 1, last))
        done = (fc == 0.0) | (b[todo] - a[todo] < _XTOL + _RTOL * np.abs(c))
        todo = todo[~done]
    if todo.size:
        raise SolverError(
            f"root refinement left {todo.size} brackets open after {_MAX_REFINE} rounds "
            f"(F={params.F}, d={params.d}, bc={bc.value})"
        )
    return x.tolist()


@lru_cache(maxsize=128)
def _scale(F: float, d: float, level: TransverseLevel) -> float:
    """Positive factor that gives ``level``'s far-wall solution unit L2 norm, memoized.

    Raises :class:`SolverError` when the normalized eigenfunction misses the
    ``z = 0`` wall condition, ``chi(0) d^(1/2)`` (DD) or ``chi'(0) d^(3/2)``
    (ND), which the scaling law leaves unchanged, by more than
    ``BOUNDARY_RESIDUAL_TOL``; ``chi(d) = 0`` holds by construction.
    """
    params = WaveguideParams(F=F, d=d)
    if _use_trig(params):
        return math.sqrt(2.0 / d)
    scale = 1.0 / _l2_norm(params, level.lam)
    nd = level.bc is BoundaryType.NEUMANN_DIRICHLET
    wall = abs(float(_far_wall(params, level.lam, 0.0, nd))) * (F ** (1.0 / 3.0) * d if nd else 1.0)
    residual = scale * math.sqrt(d) * wall
    if residual > BOUNDARY_RESIDUAL_TOL:
        raise SolverError(f"level {level.n} ({level.bc.value}) misses the z=0 wall condition by "
                          f"{residual:.3g} > {BOUNDARY_RESIDUAL_TOL:g} (F={F}, d={d})")
    return scale


def _chi(level: TransverseLevel, params: WaveguideParams, z, derivative: bool):
    z_arr = np.asarray(z, dtype=np.float64)
    if _use_trig(params):
        # The far-wall solution is sin(k (d - z)) for both walls, on the
        # field-free wavenumber.
        k = math.sqrt(_trig_lam(params.d, level.bc, level.n))
        out = -k * np.cos(k * (params.d - z_arr)) if derivative else np.sin(k * (params.d - z_arr))
    else:
        w = params.F ** (1.0 / 3.0) if derivative else 1.0
        out = w * _far_wall(params, level.lam, z_arr, derivative)
    out = _scale(params.F, params.d, level) * out
    return float(out) if np.isscalar(z) else out


def chi(level: TransverseLevel, params: WaveguideParams, z):
    """Normalized transverse eigenfunction at ``z`` (scalar or array)."""
    return _chi(level, params, z, derivative=False)


def chi_prime(level: TransverseLevel, params: WaveguideParams, z):
    """Derivative of the normalized transverse eigenfunction."""
    return _chi(level, params, z, derivative=True)


def _l2_norm(params: WaveguideParams, lam: float) -> float:
    """L2 norm over [0, d] of the far-wall solution at ``lam``, by refining composite Simpson.

    The panel count doubles until two rounds agree to ``NORM_TOL``; past
    131072 panels the last round's value stands.  For F > 0 it stops 40 Airy
    lengths ``F^(-1/3)`` past the turning point ``lam/F``, where ``|y| < e^-168``.
    """
    d = params.d
    if params.F > 0.0:
        d = min(d, lam / params.F + 40.0 / params.F ** (1.0 / 3.0))

    def sq_on(npanels):
        z = np.linspace(0.0, d, 2 * npanels + 1)
        vals = _far_wall(params, lam, z, derivative=False) ** 2
        return d / (2 * npanels) / 3.0 * (vals[0] + vals[-1] + 4.0 * vals[1::2].sum()
                                          + 2.0 * vals[2:-1:2].sum())

    n = 256
    prev = sq_on(n)
    while n <= 65536:
        n *= 2
        cur = sq_on(n)
        if abs(cur - prev) <= NORM_TOL * max(abs(cur), 1e-300):
            break
        prev = cur
    return math.sqrt(cur)


def levels(params: WaveguideParams, bc: BoundaryType, count: int) -> list[TransverseLevel]:
    """First ``count`` transverse eigenvalues in increasing order, located to 1e-10 relative.

    Except in the weak field just above the trig switch: up to 2e-6 relative
    off at F = 3.13e-7, d = 1.  Below it (``F < 1e-8 (pi/d)^3``) a level is the
    trig one plus the first-order shift ``F <z>``, within 1e-13 of the Airy
    determinant's root.
    """
    count = int(count)
    if not 1 <= count <= 100:
        raise ValueError("count must be in 1..100")
    if _use_trig(params):
        lams = [_trig_lam(params.d, bc, n, params.F) for n in range(1, count + 1)]
    else:
        lams = _scan_roots(params, bc, count)
    return [TransverseLevel(n=n, bc=bc, lam=lam) for n, lam in enumerate(lams, start=1)]


def fd_levels_oracle(params: WaveguideParams, bc: BoundaryType, count: int, nodes: int) -> list[float]:
    """Eigenvalues of the symmetric second-order central-difference discretization.

    Dirichlet walls drop the boundary node; the Neumann wall keeps it with a
    reflected ghost (equivalently, half trapezoid mass), symmetrized by the
    diagonal similarity.  Computed by LAPACK bisection on Sturm sequences.
    Converges O(h^2) to :func:`levels`.
    """
    nodes = int(nodes)
    if nodes < 100:
        raise ValueError("nodes must be >= 100")
    count = int(count)
    h = params.d / nodes
    inv_h2 = 1.0 / (h * h)
    if bc is BoundaryType.DIRICHLET_DIRICHLET:
        z = h * np.arange(1, nodes)
        diag = 2.0 * inv_h2 + params.F * z
        off = np.full(nodes - 2, -inv_h2)
    else:
        z = h * np.arange(0, nodes)
        diag = 2.0 * inv_h2 + params.F * z
        off = np.full(nodes - 1, -inv_h2)
        off[0] = -math.sqrt(2.0) * inv_h2
    from scipy.linalg import eigvalsh_tridiagonal
    vals = eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, count - 1))
    return [float(v) for v in vals]


def asymptotic_weak(params: WaveguideParams, bc: BoundaryType, n: int) -> float:
    """Weak-field closed-form estimate (stated convention, o(F) remainder).

    The Neumann-Dirichlet family is indexed here 1-based; the source
    convention's 0-based index maps as ``n_source = n - 1``.
    """
    n = int(n)
    if n < 1:
        raise ValueError("level index must be >= 1")
    F, d = params.F, params.d
    if bc is BoundaryType.DIRICHLET_DIRICHLET:
        c = n * math.pi
    else:
        c = (2 * n - 1) * math.pi / 2.0
    return ((c + math.sqrt(c * c + d ** 3 * F)) / (2.0 * d)) ** 2


def asymptotic_strong(params: WaveguideParams, bc: BoundaryType, n: int) -> float:
    """Strong-field estimate, stated convention (see also :func:`strong_field_airy_level`).

    The two do not agree; this value is reported as-is and never asserted
    against the exact solver.
    """
    n = int(n)
    if n < 1:
        raise ValueError("level index must be >= 1")
    if not params.F > 0.0:
        raise ValueError("strong-field estimate requires F > 0")
    if bc is BoundaryType.DIRICHLET_DIRICHLET:
        factor = 2.0 * n - 0.25
    else:
        factor = 2.0 * (n - 1) + 0.75
    return (1.5 * params.F * math.pi * factor) ** (2.0 / 3.0)


def strong_field_airy_level(params: WaveguideParams, bc: BoundaryType, n: int) -> float:
    """Companion strong-field value from Airy zeros: ``t_n * F**(2/3)``.

    ``t_n`` is the n-th zero magnitude of Ai (Dirichlet wall at z=0) or of
    Ai' (Neumann wall), the exact limit when the far wall decouples.
    """
    n = int(n)
    if n < 1:
        raise ValueError("level index must be >= 1")
    if not params.F > 0.0:
        raise ValueError("strong-field estimate requires F > 0")
    if bc is BoundaryType.DIRICHLET_DIRICHLET:
        t = specfun.airy_ai_zero(n)
    else:
        t = specfun.airy_aip_zero(n)
    return t * params.F ** (2.0 / 3.0)


@lru_cache(maxsize=128)
def ground_level(F: float, d: float, bc: BoundaryType) -> TransverseLevel:
    """Lowest transverse level for the walls ``bc``, memoized on ``(F, d, bc)``.

    The transverse problem does not see the window radius, so a sweep over
    ``a`` at fixed ``(F, d)`` solves each ground level once.
    """
    return levels(WaveguideParams(F=F, d=d), bc, 1)[0]
