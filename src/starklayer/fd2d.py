"""Axisymmetric finite-difference eigensolver on the (r, z) cylinder.

Discretizes ``-(1/r) d/dr (r d/dr) + m^2/r^2 - d^2/dz^2 + F z`` with
conservative flux differencing: cell-centered radial nodes ``r_i = (i+1/2)h_r``
(no axis condition needed), vertex z nodes ``z_j = j h_z``.  After the diagonal
similarity by the square root of the node weights ``w = r_i h_r h_z`` (half
weight on the Neumann bottom row) the operator is the Kronecker sum
``T = A_r (x) I + I (x) A_z`` of two symmetric tridiagonal factors: the radial
flux form with ``m^2/r^2`` (and the side-wall term for a Dirichlet wall), and
the vertical flux form with ``F z`` (top node eliminated).

Three boundary setups: the inner cylinder of radius a with Dirichlet or
Neumann side wall (validating the analytic brackets from both sides), and the
truncated full window problem (Neumann on the bottom only inside the window;
its eigenvalues are upper bounds of the untruncated layer, decreasing in the
truncation radius).  The inner problems are ``T`` itself; the window matrix is
the principal submatrix of ``T`` that drops the bottom nodes with ``r > a``.

Eigenpairs come from the tensor structure, with no iteration cap and no start
vector.  For ``T`` they are the sums ``mu_p + nu_q`` of the factor eigenvalues,
with vectors ``Q_r[:, p] (x) Q_z[:, q]``.  The window keeps W, the bottom
nodes with ``r <= a`` (about nr/4 of them); the rest is again a Kronecker sum,
with eigenvalues ``mu_p + nu_q'``, and the Schur complement ``S(lam)`` of
``A - lam I`` onto W is a small matrix whose entries are sums over the factor
eigenpairs.  By Haynsworth's inertia additivity (Linear Algebra Appl. 1, 1968)
the number of eigenvalues below ``lam`` is #{mu_p + nu_q' < lam} plus the
number of negative eigenvalues of ``S(lam)``: a count, as a Sturm sequence
gives for a tridiagonal matrix (Parlett, The Symmetric Eigenvalue Problem,
1980, 3.3).  Counts isolate each eigenvalue between the poles ``mu_p + nu_q'``,
a safeguarded Newton iteration on the eigenvalue branch of ``S`` that crosses
zero refines it, and the vector follows by fast diagonalization (Lynch, Rice &
Thomas, Numer. Math. 6, 1964).
``CylOperator.spectral_floor``, the lowest eigenvalue of ``A_z``, is a floor
of every assembled spectrum (``A_r`` is positive semidefinite, and Cauchy
interlacing covers the window submatrix).

No solve imports scipy.  Each factor is diagonalized by ``numpy.linalg.eigh``
on its dense form, memoized on the factor's entries; the radial factor is
built in units of ``h_r`` (``A_r = A_r_hat / h_r^2``), so one solve serves
every radius.  Residuals come from the 5-point stencil on the grid.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .bracket import SpectralWindow, window
from .transverse import WaveguideParams

if TYPE_CHECKING:
    import scipy.sparse

__all__ = [
    "CylGrid",
    "BCKind",
    "WindowBC",
    "CylOperator",
    "EigResult",
    "WindowResult",
    "ConvergenceError",
    "assemble",
    "count_below",
    "lowest_eigs",
    "window_ground_state",
]

EIG_RESIDUAL_TOL = 1e-8


class ConvergenceError(RuntimeError):
    """Eigensolver did not converge; carries the best value and residual."""

    def __init__(self, message, best_value=None, best_residual=None):
        super().__init__(message)
        self.best_value = best_value
        self.best_residual = best_residual


@dataclass(frozen=True)
class CylGrid:
    """Tensor grid: nr radial cells on (0, r_max], nz vertical cells on [0, d].

    Spacings lie in [1e-154, 1e154], where their squares and inverse squares
    are finite and nonzero.
    """

    nr: int
    nz: int
    r_max: float
    d: float

    def __post_init__(self):
        if self.nr < 8 or self.nz < 8:
            raise ValueError("grid needs nr >= 8 and nz >= 8")
        for name, h in (("h_r", self.h_r), ("h_z", self.h_z)):
            if not 1e-154 <= h <= 1e154:
                raise ValueError(f"grid spacing {name}={h!r} outside [1e-154, 1e154]")

    @property
    def h_r(self) -> float:
        return self.r_max / self.nr

    @property
    def h_z(self) -> float:
        return self.d / self.nz

    @property
    def r_nodes(self) -> np.ndarray:
        return (np.arange(self.nr) + 0.5) * self.h_r

    @property
    def z_nodes(self) -> np.ndarray:
        return np.arange(self.nz + 1) * self.h_z


class BCKind(enum.Enum):
    INNER_DIRICHLET = "inner-dirichlet"
    INNER_NEUMANN = "inner-neumann"
    TRUNCATED_FULL = "truncated-full"


@dataclass(frozen=True)
class WindowBC:
    """Boundary setup plus angular order m of the Fourier sector."""

    kind: BCKind
    m: int = 0

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("angular order m must be >= 0")


@dataclass
class CylOperator:
    """Assembled symmetric operator with its grid bookkeeping.

    The operator is the Kronecker sum of the (diagonal, off-diagonal) factors
    ``radial`` and ``vertical`` on the nodes of the ``(nr, nz)`` mask
    ``active``, numbered row-major (z fastest).  ``matrix`` is a reference
    CSR form for tests and tools, built on first read; no solve reads it.
    """

    grid: CylGrid
    bc: WindowBC
    params: WaveguideParams
    spectral_floor: float      # lowest eigenvalue of the vertical factor
    radial: tuple[np.ndarray, np.ndarray]
    vertical: tuple[np.ndarray, np.ndarray]
    active: np.ndarray

    @property
    def dimension(self) -> int:
        return int(np.count_nonzero(self.active))

    @functools.cached_property
    def matrix(self) -> scipy.sparse.csr_array:
        """The operator as a CSR matrix, built (and ``scipy.sparse`` imported) on first read."""
        import scipy.sparse
        (r_diag, r_off), (z_diag, z_off) = self.radial, self.vertical
        nz = len(z_diag)
        z_band = np.tile(np.append(z_off, 0.0), len(r_diag))[:-1]   # no z coupling across r rows
        r_band = np.repeat(r_off, nz)
        full = scipy.sparse.diags_array(
            [r_band, z_band, (r_diag[:, None] + z_diag[None, :]).ravel(), z_band, r_band],
            offsets=[-nz, -1, 0, 1, nz], format="csr")
        keep = np.flatnonzero(self.active)
        return full if len(keep) == full.shape[0] else full[keep][:, keep]


@functools.lru_cache(maxsize=32)
def _factor_eigh(diag: bytes, off: bytes):
    """Read-only ``numpy.linalg.eigh`` of the dense tridiagonal with these float64 entries."""
    d, e = np.frombuffer(diag), np.frombuffer(off)
    pairs = np.linalg.eigh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
    for x in pairs:
        x.flags.writeable = False
    return pairs


def _radial_factor(nr: int, bc: WindowBC):
    """``h_r^2 A_r``, which depends on (nr, m, wall) alone: radii in units of h_r."""
    face = np.arange(nr + 1.0)                  # face radii, the axis face is 0
    r = np.arange(nr) + 0.5
    diag = (face[:-1] + face[1:]) / r + bc.m ** 2 / r ** 2
    diag[-1] -= face[-1] / r[-1]
    if bc.kind is not BCKind.INNER_NEUMANN:     # half-cell gradient to the wall value 0
        diag[-1] += 2.0 * nr / r[-1]
    return diag, -face[1:-1] / np.sqrt(r[:-1] * r[1:])


def assemble(params: WaveguideParams, grid: CylGrid, bc: WindowBC) -> CylOperator:
    """Assemble the similarity-scaled symmetric matrix for the requested setup.

    The 1-D factors and their Kronecker sum, one 5-diagonal matrix, less the
    bottom nodes outside the window for the window kind (see the module
    docstring).
    """
    if bc.kind is BCKind.TRUNCATED_FULL:
        if params.a <= 0.0:
            raise ValueError("truncated window problem requires a > 0")
        if grid.r_max < 4.0 * params.a:
            raise ValueError("truncated window problem requires r_max >= 4a")
    else:
        if not math.isclose(grid.r_max, params.a, rel_tol=1e-12):
            raise ValueError("inner-cylinder problems require r_max == a")

    nr, nz = grid.nr, grid.nz
    h_z = grid.h_z
    z = grid.z_nodes[:nz]
    h2 = grid.h_r ** 2
    r_diag, r_off = (x / h2 for x in _radial_factor(nr, bc))

    wz = np.ones(nz)
    wz[0] = 0.5                                  # trapezoid mass on the Neumann row
    faces = np.full(nz, 2.0)
    faces[0] = 1.0                               # no face below the bottom row
    z_diag = faces / (h_z * h_z * wz) + params.F * z
    z_off = -1.0 / (h_z * h_z * np.sqrt(wz[:-1] * wz[1:]))

    active = np.ones((nr, nz), dtype=bool)
    if bc.kind is BCKind.TRUNCATED_FULL:
        active[grid.r_nodes > params.a, 0] = False   # bottom outside the window: Dirichlet

    floor = float(_factor_eigh(z_diag.tobytes(), z_off.tobytes())[0][0])
    return CylOperator(grid=grid, bc=bc, params=params, spectral_floor=floor,
                       radial=(r_diag, r_off), vertical=(z_diag, z_off), active=active)


@dataclass(frozen=True)
class EigResult:
    """Lowest eigenvalues with their relative residuals in the weighted norm."""

    values: list[float]
    residuals: list[float]
    grid: CylGrid
    bc: WindowBC


def splu(a):
    """Symmetric-mode sparse LU of ``a`` by ``scipy.sparse.linalg.splu``.

    Nothing in the package calls it.  It stays only because the benchmark's
    tracer wraps ``fd2d.splu`` by name, so its spans and LU solve counter
    read 0.
    """
    from scipy.sparse.linalg import splu as scipy_splu
    return scipy_splu(a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                      options={"SymmetricMode": True})


class _Slicer:
    """Spectrum slicing of the operator through its tensor structure.

    The nodes split into W, the kept window bottom nodes (a prefix of the
    radial index; none for the inner problems), and the rest, whose matrix
    ``T = A_r (x) I + I (x) A_z'`` is a Kronecker sum (``A_z'`` is ``A_z``
    less its bottom row and column for the window kind) with eigenvalues
    ``mu_p + nu_q``, the poles.  W couples to T only through the z = h_z row,
    by ``c = A_z[0, 1]``.
    """

    def __init__(self, op: CylOperator):
        r_diag, r_off = op.radial
        z_diag, z_off = op.vertical
        self.top = top = int(op.bc.kind is BCKind.TRUNCATED_FULL)   # first z row of T
        mu_hat, self.q_r = _factor_eigh(*(x.tobytes() for x in _radial_factor(op.grid.nr, op.bc)))
        nu, self.q_z = _factor_eigh(z_diag[top:].tobytes(), z_off[top:].tobytes())
        self.poles = (mu_hat / op.grid.h_r ** 2)[:, None] + nu[None, :]
        nw = int(np.count_nonzero(op.active[:, 0])) if top else 0
        self.q_w = self.q_r[:nw]
        a_r = np.diag(r_diag) + np.diag(r_off, 1) + np.diag(r_off, -1)
        self.a_w = a_r[:nw, :nw] + z_diag[0] * np.eye(nw)
        self.scale = float(np.abs(self.a_w).sum(axis=1).max(initial=0.0))
        self.c = z_off[0]
        self.weights = z_off[0] ** 2 * self.q_z[0] ** 2
        self.shape = op.active.shape

    def __call__(self, lam: float):
        """``(count, sigma, v, inv)``: #{eigenvalues < lam} and what Newton needs.

        ``(sigma, v)`` are the eigenpairs of ``S(lam) = A_WW - lam I - c^2
        Q_r[W] diag(h) Q_r[W]^T``, ``h_p = sum_q Q_z'[0, q]^2 inv_pq``, the Schur
        complement of ``A - lam I`` onto W, where ``inv = 1 / (mu_p + nu_q - lam)``.
        By Haynsworth's inertia additivity, ``count`` is #{poles < lam} plus the
        number of negative ``sigma``.  At a pole, S is first compressed off the
        pole's directions, which carry one negative branch each just below it:
        the count is then the limit from below, and ``(sigma, v)`` are unused.
        """
        gap = self.poles - lam
        at_pole = not gap.all()
        if at_pole:
            zero = gap == 0.0
            hit = zero.any(axis=1)
            gap[zero] = np.inf                          # leave the poles' terms out
        inv = 1.0 / gap
        below = int(np.count_nonzero(gap < 0.0))
        s = self.a_w - lam * np.eye(len(self.a_w)) - (self.q_w * (inv @ self.weights)) @ self.q_w.T
        if at_pole and len(s):
            rank = int(np.linalg.matrix_rank(self.q_w[:, hit]))
            rest = np.linalg.qr(self.q_w[:, hit], mode="complete")[0][:, rank:]
            s = rest.T @ s @ rest
            below += rank
        sigma, v = np.linalg.eigh(s)
        return below + int(np.count_nonzero(sigma < 0.0)), sigma, v, inv

    def slope(self, v: np.ndarray, inv: np.ndarray) -> float:
        """d sigma / d lam of the branch with unit eigenvector ``v``, at most -1."""
        return -1.0 - float(((self.q_w.T @ v) ** 2) @ ((inv * inv) @ self.weights))

    def lowest(self, k: int, floor: float):
        """The k lowest eigenvalues, and their vectors on the grid, unnormalized."""
        nw = len(self.a_w)
        block = self.poles[:k, :k]                      # holds every pole up to the k-th
        blocks = np.zeros((k,) + self.shape)
        if not nw:                      # the Kronecker sum itself
            ps, qs = np.unravel_index(np.argsort(block, axis=None, kind="stable")[:k], block.shape)
            for j, (p, q) in enumerate(zip(ps, qs)):
                blocks[j, :, self.top:] = np.outer(self.q_r[:, p], self.q_z[:, q])
            return block[ps, qs], blocks
        small = np.sort(block, axis=None)
        values = np.empty(k)
        probes = []                     # (lam, #{eigenvalues < lam}) of every evaluation
        lo = floor
        for j in range(k):
            hi = small[j]               # Cauchy interlacing: T is a submatrix of A
            for x, count in probes:
                if count <= j:
                    lo = max(lo, x)
                else:
                    hi = min(hi, x)
            inside = small[(small > lo) & (small < hi)]
            while inside.size:          # bisect on the count at the median pole
                x = inside[inside.size // 2]
                count = self(x)[0]
                probes.append((x, count))
                if count <= j:
                    lo = x
                else:
                    hi = x
                inside = small[(small > lo) & (small < hi)]
            n = j - int(np.count_nonzero(small <= lo))   # the branch of S crossing zero
            if not 0 <= n < nw:
                raise ConvergenceError(f"eigenvalue {j + 1}: the counts in ({lo!r}, {hi!r}) "
                                       "are inconsistent")
            values[j], (_, sigma, v, inv) = self.root(n, lo, hi, probes)
            lo = values[j]
            blocks[j, :nw, 0], blocks[j, :, 1:] = self.vector(n, sigma, v, inv)
        return values, blocks

    def root(self, n: int, lo: float, hi: float, probes: list):
        """Root of the n-th eigenvalue branch of S on the pole-free ``(lo, hi)``.

        The branch is continuous and falls with slope <= -1 there, from >= 0
        at ``lo`` to < 0 at ``hi``.  Newton steps, replaced by bisection when
        they leave the bracket or do not halve the step before last
        (``rtsafe``, Press et al., Numerical Recipes, 3rd ed., 9.4), until the
        branch is within the rounding level of S or the step within a few
        ulps; the last Newton step is taken.  Returns the root and the
        evaluation before that step, whose ``v[:, n]`` is the null vector.
        """
        eps = np.finfo(float).eps
        x = 0.5 * (lo + hi)
        step = step_old = hi - lo
        while True:
            count, sigma, v, inv = ev = self(x)
            probes.append((x, count))
            f = sigma[n]
            df = self.slope(v[:, n], inv)
            newton = x - f / df
            noise = len(sigma) * eps * (self.scale + abs(x) + np.abs(sigma).max())
            if abs(f) <= noise or abs(newton - x) <= 4.0 * eps * abs(x):
                return min(max(newton, lo), hi), ev
            if f > 0.0:
                lo = x
            else:
                hi = x
            if lo < newton < hi and abs(2.0 * f) <= abs(step_old * df):
                step_old, step = step, newton - x
            else:
                step_old, step = step, 0.5 * (hi - lo)
                newton = lo + step
            if not lo < newton < hi:
                return x, ev
            x = newton

    def vector(self, n: int, sigma: np.ndarray, v: np.ndarray, inv: np.ndarray):
        """Eigenvector ``(x_W, x_T)`` of the root of branch n, unnormalized.

        The direct vector is ``u = (v_n, -(T - lam)^{-1} B v_n)``.  Near a
        pole its residual is ``|sigma_n| / |u|`` with ``|d sigma / d lam| =
        |u|^2``, so the rounding of lam is amplified by ``|u|``; one step of
        inverse iteration, ``sigma_n (A - lam)^{-1} u`` by block elimination
        in the eigenbasis of T, removes that factor.
        """
        q_w, row = self.q_w, self.q_z[0]
        u_w = v[:, n]
        rhs = u_w + q_w @ (((inv * inv) @ self.weights) * (q_w.T @ u_w))   # u_W - B^T (T - lam)^{-1} u_T
        ratio = np.divide(sigma[n], sigma, out=np.ones_like(sigma), where=sigma != 0.0)
        ratio[n] = 1.0
        x_w = v @ (ratio * (v.T @ rhs))
        x_hat = -(np.outer(self.c * (q_w.T @ x_w), row)
                  + sigma[n] * inv * np.outer(self.c * (q_w.T @ u_w), row)) * inv
        return x_w, self.q_r @ x_hat @ self.q_z.T


def _apply(op: CylOperator, x: np.ndarray) -> np.ndarray:
    """5-point stencil of ``A_r (x) I + I (x) A_z`` on grid blocks ``x``, shape ``(..., nr, nz)``.

    If ``x`` is zero off ``op.active``, the result on ``op.active`` is the
    principal submatrix times ``x``; off it, it is not used.
    """
    (r_diag, r_off), (z_diag, z_off) = op.radial, op.vertical
    y = (r_diag[:, None] + z_diag) * x
    y[..., 1:, :] += r_off[:, None] * x[..., :-1, :]
    y[..., :-1, :] += r_off[:, None] * x[..., 1:, :]
    y[..., 1:] += z_off * x[..., :-1]
    y[..., :-1] += z_off * x[..., 1:]
    return y


def count_below(op: CylOperator, lam: float) -> int:
    """Number of eigenvalues of ``op.matrix`` below ``lam``, with no solve.

    #{mu_p + nu_q < lam}, plus, for a window with kept bottom nodes W, the
    negative eigenvalues of the |W| x |W| Schur complement ``S(lam)`` (see
    :class:`_Slicer`).  Exact in exact arithmetic, as a Sturm count is.
    """
    return _Slicer(op)(float(lam))[0]


def lowest_eigs(op: CylOperator, k: int) -> EigResult:
    """k smallest eigenpairs, exactly from the tensor structure.

    Inner problems, and a window with no kept bottom node, are Kronecker sums:
    the values are the k smallest ``mu_p + nu_q`` (a stable sort), the vectors
    ``Q_r[:, p] (x) Q_z[:, q]``.  Otherwise the j-th value lies between
    ``op.spectral_floor`` (or the value before it) and the j-th smallest pole
    (Cauchy interlacing).  Counts at the poles inside bisect that bracket
    until it holds none, then a safeguarded Newton iteration finds the root
    of the eigenvalue branch of S that crosses zero there, and one
    fast-diagonalization transform gives the vector (see :class:`_Slicer`).
    There is no start vector and no iteration cap.  Residuals are
    ``|A u - lambda u|`` for unit ``u``; if any exceeds ``EIG_RESIDUAL_TOL``,
    raises :class:`ConvergenceError` with the pair of smallest residual.
    """
    k = int(k)
    if not 1 <= k <= 10:
        raise ValueError("k must be in 1..10")
    values, blocks = _Slicer(op).lowest(k, op.spectral_floor)
    blocks /= np.linalg.norm(blocks, axis=(1, 2))[:, None, None]
    misfit = _apply(op, blocks) - values[:, None, None] * blocks
    residuals = [float(r) for r in np.linalg.norm(misfit[:, op.active], axis=1)]
    if max(residuals) > EIG_RESIDUAL_TOL:
        best = int(np.argmin(residuals))
        raise ConvergenceError(
            f"eigenpair residual {max(residuals)} above {EIG_RESIDUAL_TOL}",
            best_value=float(values[best]), best_residual=residuals[best])
    return EigResult(values=[float(v) for v in values], residuals=residuals,
                     grid=op.grid, bc=op.bc)


@dataclass(frozen=True)
class WindowResult:
    """Truncated window spectrum with the spectral window and bound-state flags."""

    eig: EigResult
    window: SpectralWindow
    below_edge: list[bool]
    error_estimates: list[float]


def window_ground_state(params: WaveguideParams, nr: int = 128, nz: int = 128,
                        k: int = 1) -> WindowResult:
    """Lowest truncated-window eigenvalues with Richardson error estimates.

    Dirichlet truncation at ``r_max = 8a`` bounds the true eigenvalues from
    above (they tighten monotonically as ``r_max`` grows).
    The error estimate is ``|lambda_h - lambda_2h| / 3`` from a half-resolution
    companion run, which assumes O(h^2) convergence.  The observed order on
    the window problem is 1.1-1.2 (the corner where the Neumann window meets
    the Dirichlet bottom), so the estimate is optimistic.
    """
    if params.a <= 0.0:
        raise ValueError("window problem requires a > 0")
    r_max = 8.0 * params.a
    bc = WindowBC(BCKind.TRUNCATED_FULL)
    fine = lowest_eigs(assemble(params, CylGrid(nr, nz, r_max, params.d), bc), k)
    coarse = lowest_eigs(assemble(params, CylGrid(nr // 2, nz // 2, r_max, params.d), bc), k)
    win = window(params)
    estimates = [abs(f - c) / 3.0 for f, c in zip(fine.values, coarse.values)]
    flags = [v < win.upper for v in fine.values]
    return WindowResult(eig=fine, window=win, below_edge=flags, error_estimates=estimates)
