"""Transverse Stark operators ``-d^2/dz^2 + F z`` on ``[0, d]``.

Exact eigenvalues via Airy determinants for the pure-Dirichlet case (window
radius 0) and the Neumann-Dirichlet case (infinite window), a symmetric
finite-difference oracle, and the weak/strong-field closed-form estimates.

All determinant arithmetic runs on exponentially scaled Airy values with the
common exponent factored out, so strong fields (``F**(1/3) * d`` large) never
overflow; only a well-conditioned mantissa reaches the root finder.

The solve works on whole arrays.  The sign scan evaluates its lambda grid a
chunk at a time, one ``airy_grid`` call per chunk; all bracketed roots are
refined together by the Illinois method, one call per round; and each
composite-Simpson round of the normalization evaluates all the levels not
yet converged together.  For F from 1e-2 to 1e4, ``levels(count=20)`` costs
10 to 50 calls.
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
    "fd_levels_oracle",
    "asymptotic_weak",
    "asymptotic_strong",
    "strong_field_airy_level",
    "chi",
    "chi_prime",
    "chi1_second_derivative",
]

LEVEL_REL_TOL = 1e-10          # eigenvalue location accuracy of levels()
BOUNDARY_RESIDUAL_TOL = 1e-8   # |chi| (or |chi'|) at the endpoints, normalized
NORM_TOL = 1e-11               # quadrature target for the L2 normalization

# Below F = 1e-8 * (pi/d)^3 the Airy scaling degenerates numerically and the
# spectrum is trigonometric to 1e-8 relative anyway.
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
        if not (math.isfinite(self.d) and self.d > 0.0):
            raise ValueError("layer width d must be finite and > 0")
        if not (math.isfinite(self.a) and self.a >= 0.0):
            raise ValueError("window radius a must be finite and >= 0")


class BoundaryType(enum.Enum):
    DIRICHLET_DIRICHLET = "dirichlet-dirichlet"   # window radius 0
    NEUMANN_DIRICHLET = "neumann-dirichlet"       # infinite window: Neumann at z=0


@dataclass(frozen=True)
class TransverseLevel:
    """One transverse eigenpair.

    ``chi(z) = alpha * u(z) + beta * v(z)`` where (u, v) is the Airy
    fundamental pair for ``basis == "airy"``, or the closed trigonometric
    form for ``basis == "trig"`` (then ``alpha`` is the signed amplitude and
    ``beta == 0``).  Normalized to unit L2 norm with ``chi'(d) < 0``, which
    makes the ground state positive on the interior.
    """

    n: int
    bc: BoundaryType
    lam: float
    alpha: float
    beta: float
    basis: str


def _use_trig(params: WaveguideParams) -> bool:
    return params.F < _TRIG_SWITCH * (math.pi / params.d) ** 3


def _trig_level(params: WaveguideParams, bc: BoundaryType, n: int) -> TransverseLevel:
    d = params.d
    amp = math.sqrt(2.0 / d) * (1.0 if n % 2 == 1 else -1.0)  # fixes chi'(d) < 0
    if bc is BoundaryType.DIRICHLET_DIRICHLET:
        lam = (n * math.pi / d) ** 2
    else:
        lam = ((2 * n - 1) * math.pi / (2.0 * d)) ** 2
    return TransverseLevel(n=n, bc=bc, lam=lam, alpha=amp, beta=0.0, basis="trig")


def _det_mantissa(params: WaveguideParams, bc: BoundaryType, lam):
    """Scaled eigenvalue determinant at each ``lam``; sign and zeros match the true determinant.

    One ``airy_grid`` call evaluates both walls of every ``lam``.
    """
    w = params.F ** (1.0 / 3.0)
    lam = np.asarray(lam, dtype=np.float64)
    z0 = -lam / w ** 2
    zd = w * params.d - lam / w ** 2
    ai, aip, bi, bip, xi = specfun.airy_grid(np.stack([z0, zd]))
    damp = np.exp(2.0 * (xi[0] - xi[1]))  # <= 1 since zeta_0 < zeta_d
    if bc is BoundaryType.DIRICHLET_DIRICHLET:
        return ai[0] * bi[1] - ai[1] * bi[0] * damp
    return aip[0] * bi[1] - bip[0] * ai[1] * damp


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

    brackets = []   # (lo, hi, f_lo, f_hi); an exact grid zero is the bracket (x, x, 0, 0)
    lam, f_prev = 0.0, np.empty(0)
    steps, chunk = 0, 8 * count + 16
    while steps < max_steps:
        grid = [lam]
        for _ in range(min(chunk, max_steps - steps)):
            lam = lam + _gap_estimate(params, max(lam, lam_floor)) / 8.0
            grid.append(lam)
        steps += len(grid) - 1
        f = np.concatenate((f_prev, _det_mantissa(params, bc, np.array(grid[f_prev.size:]))))
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
        fc = _det_mantissa(params, bc, c)
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


def _airy_levels(params: WaveguideParams, bc: BoundaryType, roots: list[float]) -> list[TransverseLevel]:
    w = params.F ** (1.0 / 3.0)
    lam = np.array(roots)
    ai, aip, bi, bip, xi = specfun.airy_grid(w * params.d - lam / w ** 2)
    pre_alpha = bi                                             # Bi(zeta_d) / e^{xi_d}
    pre_beta = -ai * np.array([math.exp(-2.0 * t) for t in xi])  # -Ai(zeta_d) / e^{xi_d}
    norm = _l2_norms(params, lam, pre_alpha, pre_beta)
    return [TransverseLevel(n=k + 1, bc=bc, lam=float(lam[k]), alpha=float(pre_alpha[k] / norm[k]),
                            beta=float(pre_beta[k] / norm[k]), basis="airy")
            for k in range(lam.size)]


def _chi_airy(params: WaveguideParams, lam, alpha, beta, z, derivative: bool):
    # lam, alpha and beta are scalars, or columns that broadcast against z.
    w = params.F ** (1.0 / 3.0)
    z = np.asarray(z, dtype=np.float64)
    zeta = w * z - lam / w ** 2
    ai, aip, bi, bip, xi = specfun.airy_grid(zeta)
    da, db = (aip, bip) if derivative else (ai, bi)
    term1 = alpha * da * np.exp(-xi)
    c2 = beta * db
    with np.errstate(divide="ignore"):
        term2 = np.sign(c2) * np.exp(np.where(c2 == 0.0, -np.inf, np.log(np.abs(c2)) + xi))
    out = term1 + term2
    if derivative:
        out = w * out
    return out


def chi(level: TransverseLevel, params: WaveguideParams, z):
    """Normalized transverse eigenfunction at ``z`` (scalar or array)."""
    z_arr = np.asarray(z, dtype=np.float64)
    if level.basis == "trig":
        d = params.d
        if level.bc is BoundaryType.DIRICHLET_DIRICHLET:
            out = level.alpha * np.sin(level.n * math.pi * z_arr / d)
        else:
            out = level.alpha * np.cos((2 * level.n - 1) * math.pi * z_arr / (2.0 * d))
    else:
        out = _chi_airy(params, level.lam, level.alpha, level.beta, z_arr, derivative=False)
    return float(out) if np.isscalar(z) else out


def chi_prime(level: TransverseLevel, params: WaveguideParams, z):
    """Derivative of the normalized transverse eigenfunction."""
    z_arr = np.asarray(z, dtype=np.float64)
    if level.basis == "trig":
        d = params.d
        if level.bc is BoundaryType.DIRICHLET_DIRICHLET:
            k = level.n * math.pi / d
            out = level.alpha * k * np.cos(k * z_arr)
        else:
            k = (2 * level.n - 1) * math.pi / (2.0 * d)
            out = -level.alpha * k * np.sin(k * z_arr)
    else:
        out = _chi_airy(params, level.lam, level.alpha, level.beta, z_arr, derivative=True)
    return float(out) if np.isscalar(z) else out


def _l2_norms(params: WaveguideParams, lam, alpha, beta) -> np.ndarray:
    """L2 norms of ``alpha*u + beta*v`` over [0, d], one per level, by refining composite Simpson.

    Every level doubles its panel count until two rounds agree to
    ``NORM_TOL``.  A round evaluates the levels still open in as few
    ``airy_grid`` calls as ``specfun.MAX_CALL_POINTS`` allows.
    """
    d = params.d

    def sq_on(npanels, idx):
        z = np.linspace(0.0, d, 2 * npanels + 1)
        h = d / (2 * npanels)
        per_call = max(1, specfun.MAX_CALL_POINTS // z.size)
        out = []
        for start in range(0, idx.size, per_call):
            k = idx[start:start + per_call, None]
            vals = _chi_airy(params, lam[k], alpha[k], beta[k], z, derivative=False) ** 2
            out.append(h / 3.0 * (vals[:, 0] + vals[:, -1] + 4.0 * vals[:, 1::2].sum(axis=1)
                                  + 2.0 * vals[:, 2:-1:2].sum(axis=1)))
        return np.concatenate(out)

    n = 256
    todo = np.arange(lam.size)
    prev = sq_on(n, todo)
    result = np.empty_like(prev)
    while n <= 65536 and todo.size:
        n *= 2
        cur = sq_on(n, todo)
        result[todo] = cur   # the last round's value stands for a level that never settles
        done = np.abs(cur - prev) <= NORM_TOL * np.maximum(np.abs(cur), 1e-300)
        todo, prev = todo[~done], cur[~done]
    return np.sqrt(result)


def levels(params: WaveguideParams, bc: BoundaryType, count: int) -> list[TransverseLevel]:
    """First ``count`` transverse eigenpairs in increasing order, located to 1e-10 relative."""
    count = int(count)
    if not 1 <= count <= 100:
        raise ValueError("count must be in 1..100")
    if _use_trig(params):
        return [_trig_level(params, bc, n) for n in range(1, count + 1)]
    return _airy_levels(params, bc, _scan_roots(params, bc, count))


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


def chi1_second_derivative(level: TransverseLevel, params: WaveguideParams, z):
    """``chi_1''(z) = (F z - lambda) chi_1(z)`` via the differential equation."""
    if level.bc is not BoundaryType.DIRICHLET_DIRICHLET or level.n != 1:
        raise ValueError("requires the Dirichlet-Dirichlet ground state")
    z_arr = np.asarray(z, dtype=np.float64)
    out = (params.F * z_arr - level.lam) * chi(level, params, z_arr)
    return float(out) if np.isscalar(z) else out


@lru_cache(maxsize=128)
def _ground_state_cached(params: WaveguideParams) -> TransverseLevel:
    return levels(params, BoundaryType.DIRICHLET_DIRICHLET, 1)[0]


@lru_cache(maxsize=128)
def _nd_ground_cached(params: WaveguideParams) -> TransverseLevel:
    return levels(params, BoundaryType.NEUMANN_DIRICHLET, 1)[0]
