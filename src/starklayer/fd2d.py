"""Axisymmetric finite-difference eigensolver on the (r, z) cylinder.

Discretizes ``-(1/r) d/dr (r d/dr) + m^2/r^2 - d^2/dz^2 + F z`` with
conservative flux differencing: cell-centered radial nodes ``r_i = (i+1/2)h_r``
(no axis condition needed), vertex z nodes ``z_j = j h_z``.  The operator is
assembled from the quadratic form, so the matrix is exactly symmetric after
the diagonal similarity by the square root of the node weights
``w = r_i h_r h_z`` (half weight on the Neumann bottom row).

Three boundary setups: the inner cylinder of radius a with Dirichlet or
Neumann side wall (validating the analytic brackets from both sides), and the
truncated full window problem (Neumann on the bottom only inside the window;
its eigenvalues are upper bounds of the untruncated layer, decreasing in the
truncation radius).

Eigenpairs come from ARPACK (``scipy.sparse.linalg.eigsh``) in shift-invert
mode at the shift ``0.9 * nu_0``, where ``nu_0``
(``CylOperator.spectral_floor``) is the lowest eigenvalue of the grid's own
1-D z operator (the vertical faces plus ``F z_j``, half weight on the Neumann
row).  ``nu_0`` is a floor of every assembled spectrum: the radial part is
positive semidefinite, so the inner problems are bounded below by their
vertical part, and the window matrix is a principal submatrix of the
Neumann-bottom-everywhere one (Cauchy interlacing).  The shifted matrix is
therefore symmetric positive definite; it is factorized once by SuperLU in
symmetric mode (diagonal pivots on a symmetric fill-reducing ordering), and
the factorization is accepted only when its row and column permutations agree
and every pivot is positive, which by Sylvester's law of inertia proves that
no eigenvalue lies below the shift.  The start vector is fixed, so runs are
deterministic.  scipy is imported on first use, so importing this module does
not load ``scipy.sparse``.
"""

from __future__ import annotations

import enum
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
    "lowest_eigs",
    "window_ground_state",
]

EIG_RESIDUAL_TOL = 1e-8
ARPACK_TOL = 1e-10   # relative Ritz tolerance of eigsh in lowest_eigs


class ConvergenceError(RuntimeError):
    """Eigensolver did not converge; carries the best value and residual."""

    def __init__(self, message, best_value=None, best_residual=None):
        super().__init__(message)
        self.best_value = best_value
        self.best_residual = best_residual


@dataclass(frozen=True)
class CylGrid:
    """Tensor grid: nr radial cells on (0, r_max], nz vertical cells on [0, d]."""

    nr: int
    nz: int
    r_max: float
    d: float

    def __post_init__(self):
        if self.nr < 8 or self.nz < 8:
            raise ValueError("grid needs nr >= 8 and nz >= 8")
        if not (self.r_max > 0.0 and self.d > 0.0):
            raise ValueError("grid extents must be positive")

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
    """Assembled symmetric operator with its grid bookkeeping."""

    matrix: scipy.sparse.csr_matrix
    grid: CylGrid
    bc: WindowBC
    params: WaveguideParams
    spectral_floor: float      # lowest eigenvalue of the grid's 1-D z operator

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def assemble(params: WaveguideParams, grid: CylGrid, bc: WindowBC) -> CylOperator:
    """Assemble the similarity-scaled symmetric matrix for the requested setup."""
    if bc.kind is BCKind.TRUNCATED_FULL:
        if params.a <= 0.0:
            raise ValueError("truncated window problem requires a > 0")
        if grid.r_max < 4.0 * params.a:
            raise ValueError("truncated window problem requires r_max >= 4a")
    else:
        if not math.isclose(grid.r_max, params.a, rel_tol=1e-12):
            raise ValueError("inner-cylinder problems require r_max == a")

    nr, nz = grid.nr, grid.nz
    h_r, h_z = grid.h_r, grid.h_z
    r = grid.r_nodes
    z = grid.z_nodes

    active = np.ones((nr, nz + 1), dtype=bool)
    active[:, nz] = False                       # top plate: Dirichlet
    if bc.kind is BCKind.TRUNCATED_FULL:
        active[r > params.a, 0] = False         # bottom outside the window: Dirichlet

    index = np.full((nr, nz + 1), -1, dtype=np.int64)
    index[active] = np.arange(int(active.sum()))
    n = int(active.sum())

    wz = np.ones(nz + 1)
    wz[0] = 0.5                                  # trapezoid mass on the Neumann row
    weight = r[:, None] * h_r * h_z * wz[None, :]
    sqrt_w = np.sqrt(weight)

    rows, cols, vals = [], [], []

    def add_face(ip, jp, iq, jq, c):
        """Energy term c*(u_p - u_q)^2; eliminated endpoints read as zero."""
        p_act = active[ip, jp]
        q_act = active[iq, jq]
        both = p_act & q_act
        p = index[ip, jp]
        q = index[iq, jq]
        wp = sqrt_w[ip, jp]
        wq = sqrt_w[iq, jq]
        if np.any(p_act):
            rows.append(p[p_act]); cols.append(p[p_act]); vals.append((c / wp ** 2)[p_act])
        if np.any(q_act):
            rows.append(q[q_act]); cols.append(q[q_act]); vals.append((c / wq ** 2)[q_act])
        if np.any(both):
            off = (-c / (wp * wq))[both]
            rows.append(p[both]); cols.append(q[both]); vals.append(off)
            rows.append(q[both]); cols.append(p[both]); vals.append(off)

    # radial faces between cells i and i+1 (face radius (i+1)h_r)
    ii, jj = np.meshgrid(np.arange(nr - 1), np.arange(nz + 1), indexing="ij")
    c_r = (ii + 1.0) * h_z * wz[jj]
    add_face(ii, jj, ii + 1, jj, c_r)

    # vertical faces between j and j+1
    ii, jj = np.meshgrid(np.arange(nr), np.arange(nz), indexing="ij")
    c_z = r[ii] * h_r / h_z
    add_face(ii, jj, ii, jj + 1, c_z)

    # Dirichlet side wall at r_max: value 0 at the wall face, half-cell gradient
    if bc.kind in (BCKind.INNER_DIRICHLET, BCKind.TRUNCATED_FULL):
        jj = np.arange(nz + 1)
        ii = np.full_like(jj, nr - 1)
        sel = active[ii, jj]
        c_wall = 2.0 * grid.r_max * h_z * wz[jj] / h_r
        p = index[ii, jj][sel]
        rows.append(p); cols.append(p)
        vals.append((c_wall / sqrt_w[ii, jj] ** 2)[sel])

    # potential + angular barrier (diagonal in the similarity scaling)
    ii, jj = np.meshgrid(np.arange(nr), np.arange(nz + 1), indexing="ij")
    sel = active[ii, jj]
    pot = params.F * z[jj] + (bc.m ** 2) / r[ii] ** 2
    p = index[ii, jj][sel]
    rows.append(p); cols.append(p); vals.append(pot[sel])

    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    import scipy.sparse
    matrix = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()

    # The vertical faces of one column with the same weights wz: the bottom row
    # has no face below it, the top node is eliminated.
    faces = np.full(nz, 2.0)
    faces[0] = 1.0
    z_diag = faces / (h_z * h_z * wz[:nz]) + params.F * z[:nz]
    z_off = -1.0 / (h_z * h_z * np.sqrt(wz[:nz - 1] * wz[1:nz]))
    from scipy.linalg import eigvalsh_tridiagonal
    floor = float(eigvalsh_tridiagonal(z_diag, z_off, select="i", select_range=(0, 0))[0])
    return CylOperator(matrix=matrix, grid=grid, bc=bc, params=params, spectral_floor=floor)


@dataclass(frozen=True)
class EigResult:
    """Lowest eigenvalues with their relative residuals in the weighted norm."""

    values: list[float]
    residuals: list[float]
    grid: CylGrid
    bc: WindowBC


def splu(a):
    """Symmetric-mode sparse LU of ``a`` by ``scipy.sparse.linalg.splu``.

    SuperLU orders ``a + a^T`` by minimum degree and pivots on the diagonal,
    the factorization of a symmetric positive definite matrix.
    :func:`lowest_eigs` calls it through this module attribute, so a tracer or
    a test can wrap the factorization by replacing ``fd2d.splu``.
    """
    from scipy.sparse.linalg import splu as scipy_splu
    return scipy_splu(a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                      options={"SymmetricMode": True})


def lowest_eigs(op: CylOperator, k: int, max_iter: int = 20000) -> EigResult:
    """k smallest eigenpairs by ARPACK in shift-invert mode.

    The shift is ``0.9 * op.spectral_floor``, below the whole spectrum (see
    the module docstring), so ``A - shift I`` is positive definite and the
    eigenvalues nearest the shift are the lowest ones.  It is factorized once
    by :func:`splu`; unless that factorization kept one symmetric permutation
    and every pivot is positive (Sylvester's law of inertia: no eigenvalue
    below the shift), raises :class:`ConvergenceError`.  The Lanczos start
    vector is all ones, so runs are deterministic.  ARPACK stops at the
    relative Ritz tolerance ``ARPACK_TOL`` or after ``max_iter`` restarts.
    Residuals are ``|A u - lambda u|`` for unit ``u``; if ARPACK stops early
    or any residual exceeds ``EIG_RESIDUAL_TOL``, raises
    :class:`ConvergenceError` with the pair of smallest residual.
    """
    k = int(k)
    if not 1 <= k <= 10:
        raise ValueError("k must be in 1..10")
    import scipy.sparse
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh
    m = op.matrix
    n = m.shape[0]
    shift = 0.9 * op.spectral_floor
    lu = splu(scipy.sparse.csc_matrix(m - shift * scipy.sparse.identity(n, format="csc")))
    if not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal() > 0.0)):
        raise ConvergenceError(f"LU of A - {shift!r} I is not a positive-pivot symmetric "
                               "factorization: an eigenvalue lies below the shift")
    opinv = LinearOperator((n, n), matvec=lu.solve, dtype=np.float64)
    try:
        values, vectors = eigsh(m, k, sigma=shift, OPinv=opinv, v0=np.ones(n),
                                tol=ARPACK_TOL, maxiter=max_iter)
        failure = None
    except ArpackNoConvergence as exc:
        values, vectors = exc.eigenvalues, exc.eigenvectors
        failure = f"ARPACK converged {len(values)} of {k} eigenpairs in {max_iter} iterations"
    order = np.argsort(values)
    values = values[order]
    vectors = vectors[:, order] / np.linalg.norm(vectors[:, order], axis=0)
    residuals = [float(r) for r in np.linalg.norm(m @ vectors - vectors * values, axis=0)]
    if failure is None and max(residuals) > EIG_RESIDUAL_TOL:
        failure = f"eigenpair residual {max(residuals)} above {EIG_RESIDUAL_TOL}"
    if failure is not None:
        best = int(np.argmin(residuals)) if residuals else None
        raise ConvergenceError(
            failure,
            best_value=None if best is None else float(values[best]),
            best_residual=None if best is None else residuals[best])
    return EigResult(values=[float(v) for v in values], residuals=residuals,
                     grid=op.grid, bc=op.bc)


@dataclass(frozen=True)
class WindowResult:
    """Truncated window spectrum with the spectral window and bound-state flags."""

    eig: EigResult
    window: SpectralWindow
    below_edge: list[bool]
    error_estimates: list[float]


def window_ground_state(params: WaveguideParams, r_max: float | None = None,
                        nr: int = 128, nz: int = 128, k: int = 1) -> WindowResult:
    """Lowest truncated-window eigenvalues with Richardson error estimates.

    Dirichlet truncation at ``r_max`` (default ``8a``) bounds the true
    eigenvalues from above, tightening monotonically as ``r_max`` grows.
    The error estimate is ``|lambda_h - lambda_2h| / 3`` from a half-resolution
    companion run, which assumes O(h^2) convergence.  The observed order on
    the window problem is 1.1-1.2 (the corner where the Neumann window meets
    the Dirichlet bottom), so the estimate is optimistic.
    """
    if params.a <= 0.0:
        raise ValueError("window problem requires a > 0")
    if r_max is None:
        r_max = 8.0 * params.a
    bc = WindowBC(BCKind.TRUNCATED_FULL)
    fine = lowest_eigs(assemble(params, CylGrid(nr, nz, r_max, params.d), bc), k)
    coarse = lowest_eigs(assemble(params, CylGrid(nr // 2, nz // 2, r_max, params.d), bc), k)
    win = window(params)
    estimates = [abs(f - c) / 3.0 for f, c in zip(fine.values, coarse.values)]
    flags = [v < win.upper for v in fine.values]
    return WindowResult(eig=fine, window=win, below_edge=flags, error_estimates=estimates)
