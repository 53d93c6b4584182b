"""Transverse Stark operators ``-d^2/dz^2 + F z`` on ``[0, d]``.

Exact eigenvalues for the pure-Dirichlet case (window radius 0) and the
Neumann-Dirichlet case (infinite window), a symmetric finite-difference
oracle (its matrix is the 2-D solver's vertical factor), and the
weak/strong-field closed-form estimates.

Both walls use ``y = Bi(zeta_d) Ai(zeta) - Ai(zeta_d) Bi(zeta)``, which
vanishes at ``z = d`` (``zeta = F^(1/3) z - lam/F^(2/3)``).  In the Airy phases
of DLMF 9.8 it is ``M_d M sin(theta_d - theta)``, so level n is the one root
of the increasing phase ``Delta(lam) = theta_d - theta_0 = n pi`` (DD), or
``theta_d - phi_0 + pi/2 = (n - 1/2) pi`` (ND), each bracketed by min-max and
all refined in lockstep.  The norm is closed-form, ``int_0^d y^2 =
F^(1/3) M_d^2 Delta'/pi``, as ``y(d) = 0`` for every lam.  Eigenfunctions take
the phase form where both walls are oscillatory (``lam >= F d``), else the
scaled ``y e^{-xi_d}``, which never overflows.  ``F = 0`` is exact trig.
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
BOUNDARY_RESIDUAL_TOL = 1e-8   # |Delta(lam) - k d|: the z = 0 wall's phase miss

# Widths at which the first 100 field-free levels are normal floats.
MIN_WIDTH, MAX_WIDTH = 1e-100, 1e100

# A root is refined until its step is shorter than _RTOL * |x| (about four
# ulp), in at most _MAX_REFINE rounds.
_RTOL = 8.9e-16
_MAX_REFINE = 200


class SolverError(RuntimeError):
    """Eigenvalue bracketing, refinement or wall-check failure; the message names F, d."""


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
        if self.F > 0.0 and self.F * self.d ** 3 == 0.0:   # the field enters through F d^3
            raise ValueError(f"field F={self.F!r} at d={self.d!r}: F*d^3 underflows to 0")
        if not (math.isfinite(self.a) and self.a >= 0.0):
            raise ValueError("window radius a must be finite and >= 0")


class BoundaryType(enum.Enum):
    DIRICHLET_DIRICHLET = "dirichlet-dirichlet"   # window radius 0
    NEUMANN_DIRICHLET = "neumann-dirichlet"       # infinite window: Neumann at z=0


@dataclass(frozen=True)
class TransverseLevel:
    """The ``n``-th transverse eigenvalue ``lam`` for the walls ``bc``.

    Its eigenfunction is read through :func:`chi` and :func:`chi_prime`,
    which normalize it on each call.
    """

    n: int
    bc: BoundaryType
    lam: float


def _offset(bc: BoundaryType) -> float:
    """Index offset of the walls, 1/2 for a Neumann bottom: ``k_n = (n - offset) pi/d``."""
    return 0.5 * (bc is BoundaryType.NEUMANN_DIRICHLET)


def _trig_lam(d: float, bc: BoundaryType, n: int) -> float:
    """Field-free level ``k_n^2``: ``k_n = n pi/d`` (DD) or ``(n - 1/2) pi/d`` (ND)."""
    return ((n - _offset(bc)) * math.pi / d) ** 2


def _far_wall(params: WaveguideParams, lam: float, z, derivative: bool):
    """``y e^{-xi_d}`` at every ``z``, or its derivative in ``zeta``, from one ``airy_grid`` call.

    ``e^{-xi}`` and ``e^{xi - 2 xi_d}`` are at most 1 since ``zeta <= zeta_d``.
    The slope at ``d`` is ``-e^{-xi_d} / pi`` (Wronskian), so ``chi'(d) < 0``.
    """
    w = params.F ** (1.0 / 3.0)
    ai, aip, bi, bip, xi = specfun.airy_grid(w * np.append(params.d, z) - lam / w ** 2)
    a, b = (aip, bip) if derivative else (ai, bi)
    out = bi[0] * a[1:] * np.exp(-xi[1:]) - ai[0] * b[1:] * np.exp(xi[1:] - 2.0 * xi[0])
    return out.reshape(np.shape(z))


def _lead(F: float, lam, z, d: float):
    """``psi(zeta) - psi(zeta_d)`` and its lam-derivative, ``psi = (2/3) max(-zeta, 0)^(3/2)``.

    ``(2/3) (p^3 - q^3) / F`` and ``(p - q) / F`` with ``p^2 = lam - F z``,
    ``q^2 = max(lam - F d, 0)``, written in positive terms of
    ``m = (p^2 - q^2) / F``, so exact in weak fields; the phase in long double.
    """
    a = lam - np.longdouble(F) * z
    p, q = np.sqrt(a), np.sqrt(np.maximum(lam - np.longdouble(F) * d, 0.0))
    with np.errstate(over="ignore"):   # a / F overflows only where d - z is the smaller
        m = np.minimum(d - z, a / F)
    s = np.maximum(p + q, 1e-300)
    return m * (0.5 * s + (F * m) ** 2 / (6.0 * s ** 3)), (m / s).astype(np.float64)


def _phase(params: WaveguideParams, bc: BoundaryType, lam: np.ndarray, n):
    """``(Delta - k_n d, Delta', m_d)`` at every ``(lam, n)``, from one ``airy_phase`` call.

    ``Delta = psi_0 - psi_d + b_d - b_0`` (``c_0`` for a Neumann wall), in the
    terms of :func:`specfun.airy_phase`.
    """
    F, d = params.F, params.d
    w = F ** (1.0 / 3.0)
    zeta_0 = -lam / w ** 2
    m, _, b, c, db, dc = specfun.airy_phase(np.concatenate((w * d + zeta_0, zeta_0)))
    k = lam.size
    rem, slope = (c, dc) if bc is BoundaryType.NEUMANN_DIRICHLET else (b, db)
    lead, dlead = _lead(F, lam, 0.0, d)
    miss = (lead - (n - _offset(bc)) * specfun._PI_LD).astype(np.float64) + (b[:k] - rem[k:])
    return miss, dlead - (db[:k] - slope[k:]) / w ** 2, m[:k]


def _roots(params: WaveguideParams, bc: BoundaryType, count: int) -> list[float]:
    """Levels 1..count for ``F > 0``, each refined in its min-max bracket, all in lockstep.

    ``k^2 < lam < (k d/L)^2 + F L`` for ``0 < L <= d``, least at
    ``L = (2 (k d)^2/F)^(1/3)``; both ends are pulled out by 16 ``_RTOL`` so
    that one within rounding of its root (``F d^3`` below about 1e-10) still
    brackets it.  Safeguarded Newton on the phase miss ``f = Delta - k d``
    (``rtsafe``, Press et al., Numerical Recipes, 3rd ed., 9.4), started at
    the secant point of the bracket ends: each round the sign of ``f`` moves
    one end to the current point, and the step ``x - f/Delta'`` is taken where
    it lands inside the bracket, ends included, else the bracket is bisected.
    A level is done when ``f = 0`` or its step is shorter than ``_RTOL * |x|``;
    the point after that step is returned.
    """
    F, d = params.F, params.d
    n = np.arange(1, count + 1)
    k = (n - _offset(bc)) * math.pi / d
    L = np.minimum(d, np.cbrt(2.0 * (k * d) ** 2) / F ** (1.0 / 3.0))
    a = k * k * (1.0 - 16 * _RTOL)
    b = ((k * d / L) ** 2 + F * L) * (1.0 + 16 * _RTOL)
    fa, fb = np.split(_phase(params, bc, np.concatenate((a, b)), np.tile(n, 2))[0], 2)
    bad = np.flatnonzero(~((fa < 0.0) & (fb > 0.0)))
    if bad.size:
        i = bad[0]
        raise SolverError(f"level {i + 1} is not bracketed by [{a[i]}, {b[i]}]: the phase "
                          f"misses {fa[i]:.3g} and {fb[i]:.3g} (F={F}, d={d}, bc={bc.value})")
    x = b - fb * (b - a) / (fb - fa)
    todo = np.arange(count)
    for _ in range(_MAX_REFINE):
        if not todo.size:
            break
        c = x[todo]
        f, slope, _ = _phase(params, bc, c, n[todo])
        lo = a[todo] = np.where(f < 0.0, c, a[todo])
        hi = b[todo] = np.where(f > 0.0, c, b[todo])
        newton = c - f / slope
        x[todo] = np.where((lo <= newton) & (newton <= hi), newton, lo + 0.5 * (hi - lo))
        done = (f == 0.0) | (np.abs(x[todo] - c) < _RTOL * np.abs(c))
        todo = todo[~done]
    if todo.size:
        raise SolverError(f"root refinement left {todo.size} brackets open after {_MAX_REFINE} "
                          f"rounds (F={F}, d={d}, bc={bc.value})")
    return x.tolist()


def _scale(F: float, d: float, level: TransverseLevel) -> float:
    """Positive factor that gives ``level``'s ``y e^{-xi_d}`` unit L2 norm.

    ``sqrt(2/d)`` at ``F = 0``, else ``sqrt(pi / (F^(1/3) Delta')) / m_d``.
    Raises :class:`SolverError` when ``lam`` misses its phase equation by more
    than ``BOUNDARY_RESIDUAL_TOL``: the z = 0 wall's miss, measured in phase,
    which is free of scale; ``chi(d) = 0`` holds by construction.
    """
    if F == 0.0:
        return math.sqrt(2.0 / d)
    miss, slope, m_d = (float(v[0]) for v in _phase(WaveguideParams(F=F, d=d), level.bc,
                                                    np.array([level.lam]), level.n))
    if not abs(miss) <= BOUNDARY_RESIDUAL_TOL:
        raise SolverError(f"level {level.n} ({level.bc.value}) misses the z=0 wall condition by "
                          f"{abs(miss):.3g} > {BOUNDARY_RESIDUAL_TOL:g} (F={F}, d={d})")
    return math.sqrt(math.pi / (F ** (1.0 / 3.0) * slope)) / m_d


def _phase_form(params: WaveguideParams, level: TransverseLevel, z: np.ndarray, derivative: bool):
    """``y e^{-xi_d}`` or its z-derivative for ``lam >= F d``, in the phase form, from one call.

    ``m_d M sin(theta_d - theta)``, or ``F^(1/3) m_d N sin(theta_d - phi)``.
    """
    F, d, lam = params.F, params.d, level.lam
    w = F ** (1.0 / 3.0)
    zs = z.ravel()
    m, n, b, c, _, _ = specfun.airy_phase(np.concatenate(([w * d], w * zs)) - lam / w ** 2)
    lead = _lead(F, lam, zs, d)[0] + b[0]
    out = -w * n[1:] * np.cos(lead - c[1:]) if derivative else m[1:] * np.sin(lead - b[1:])
    out = out.astype(np.float64)
    return (m[0] * out).reshape(z.shape)


def _chi(level: TransverseLevel, params: WaveguideParams, z, derivative: bool):
    z_arr = np.asarray(z, dtype=np.float64)
    if params.F == 0.0:
        # The far-wall solution is sin(k (d - z)) for both walls.
        k = math.sqrt(_trig_lam(params.d, level.bc, level.n))
        out = -k * np.cos(k * (params.d - z_arr)) if derivative else np.sin(k * (params.d - z_arr))
    elif level.lam >= params.F * params.d:
        out = _phase_form(params, level, z_arr, derivative)
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


def levels(params: WaveguideParams, bc: BoundaryType, count: int) -> list[TransverseLevel]:
    """First ``count`` transverse eigenvalues in increasing order.

    For ``F > 0`` each is the root of its phase equation, to about four ulp;
    at ``F = 0`` each is the exact ``k_n^2``.
    """
    count = int(count)
    if not 1 <= count <= 100:
        raise ValueError("count must be in 1..100")
    if params.F == 0.0:
        lams = [_trig_lam(params.d, bc, n) for n in range(1, count + 1)]
    else:
        lams = _roots(params, bc, count)
    return [TransverseLevel(n=n, bc=bc, lam=lam) for n, lam in enumerate(lams, start=1)]


def _fd_operator(F: float, d: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """``(diag, off)`` of the central-difference ``-d^2/dz^2 + F z``, Neumann bottom.

    Vertex nodes ``z_j = j h < d``, ``h = d/nodes`` (the top node eliminated);
    half trapezoid mass ``w_0 = 1/2`` on the bottom row, symmetrized by
    ``sqrt(w)``: couplings ``-1/(h^2 sqrt(w_j w_{j+1}))``.  A Dirichlet bottom
    is this matrix less its first row and column.
    """
    h = d / nodes
    diag = 2.0 / (h * h) + F * (np.arange(nodes) * h)
    off = np.full(nodes - 1, -1.0 / (h * h))
    off[0] = -1.0 / (h * h * math.sqrt(0.5))
    return diag, off


def fd_levels_oracle(params: WaveguideParams, bc: BoundaryType, count: int, nodes: int) -> list[float]:
    """Eigenvalues of the symmetric second-order central-difference discretization.

    The matrix of :func:`_fd_operator`, the vertical factor of the 2-D
    solver, less its bottom row for a Dirichlet bottom.  Computed by LAPACK
    bisection on Sturm sequences.  Converges O(h^2) to :func:`levels`.
    ``nodes`` is capped at 10^6 (about 0.1 GB of work space at the cap), and
    ``count`` at the unknowns.
    """
    nodes = int(nodes)
    if not 100 <= nodes <= 1_000_000:
        raise ValueError(f"nodes must be in 100..1000000, got {nodes}")
    count = int(count)
    diag, off = _fd_operator(params.F, params.d, nodes)
    if bc is BoundaryType.DIRICHLET_DIRICHLET:
        diag, off = diag[1:], off[1:]
    if count > len(diag):
        raise ValueError(f"count {count} exceeds the {len(diag)} unknowns of {nodes} nodes")
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
    c = (n - _offset(bc)) * math.pi
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
    factor = 2.0 * (n - _offset(bc)) - 0.25
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
