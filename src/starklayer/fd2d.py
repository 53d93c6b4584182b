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

Eigenpairs come from ARPACK (``scipy.sparse.linalg.eigsh``) in shift-invert
mode at the shift ``0.9 * nu_0``, where ``nu_0``
(``CylOperator.spectral_floor``) is the lowest eigenvalue of ``A_z``, a floor
of every assembled spectrum (``A_r`` is positive semidefinite, and Cauchy
interlacing covers the window submatrix).  No sparse factorization is made:
``(T - shift)^{-1}`` is applied by fast diagonalization (Lynch, Rice & Thomas,
Numer. Math. 6, 1964) from the eigendecompositions of the two factors, and the
eliminated window nodes by the capacitance method (Buzbee, Dorr, George &
Golub, SIAM J. Numer. Anal. 8, 1971).  Every ``mu_p + nu_q - shift`` must be
positive, which proves that no eigenvalue lies below the shift.  The start
vector is fixed, so runs are deterministic.  scipy is imported on first use,
so importing this module does not load ``scipy.sparse``.
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
    "shifted_inverse",
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
    """Assembled symmetric operator with its grid bookkeeping.

    ``matrix`` is the Kronecker sum of the (diagonal, off-diagonal) factors
    ``radial`` and ``vertical`` on the nodes of the ``(nr, nz)`` mask
    ``active``, numbered row-major (z fastest).
    """

    matrix: scipy.sparse.csr_matrix
    grid: CylGrid
    bc: WindowBC
    params: WaveguideParams
    spectral_floor: float      # lowest eigenvalue of the vertical factor
    radial: tuple[np.ndarray, np.ndarray]
    vertical: tuple[np.ndarray, np.ndarray]
    active: np.ndarray

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def assemble(params: WaveguideParams, grid: CylGrid, bc: WindowBC) -> CylOperator:
    """Assemble the similarity-scaled symmetric matrix for the requested setup.

    The 1-D factors and their Kronecker sum, less the bottom nodes outside the
    window for the window kind (see the module docstring).
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
    h_r, h_z = grid.h_r, grid.h_z
    r = grid.r_nodes
    z = grid.z_nodes[:nz]

    face = np.arange(nr + 1) * h_r               # face radii, the axis face is 0
    r_diag = (face[:-1] + face[1:]) / (h_r * h_r * r) + bc.m ** 2 / r ** 2
    r_diag[-1] -= face[-1] / (h_r * h_r * r[-1])
    if bc.kind is not BCKind.INNER_NEUMANN:     # half-cell gradient to the wall value 0
        r_diag[-1] += 2.0 * grid.r_max / (h_r * h_r * r[-1])
    r_off = -face[1:-1] / (h_r * h_r * np.sqrt(r[:-1] * r[1:]))

    wz = np.ones(nz)
    wz[0] = 0.5                                  # trapezoid mass on the Neumann row
    faces = np.full(nz, 2.0)
    faces[0] = 1.0                               # no face below the bottom row
    z_diag = faces / (h_z * h_z * wz) + params.F * z
    z_off = -1.0 / (h_z * h_z * np.sqrt(wz[:-1] * wz[1:]))

    active = np.ones((nr, nz), dtype=bool)
    if bc.kind is BCKind.TRUNCATED_FULL:
        active[r > params.a, 0] = False         # bottom outside the window: Dirichlet

    import scipy.sparse
    from scipy.linalg import eigvalsh_tridiagonal
    keep = np.flatnonzero(active)
    matrix = scipy.sparse.kronsum(scipy.sparse.diags([z_off, z_diag, z_off], [-1, 0, 1]),
                                  scipy.sparse.diags([r_off, r_diag, r_off], [-1, 0, 1]),
                                  format="csr")[keep][:, keep]
    floor = float(eigvalsh_tridiagonal(z_diag, z_off, select="i", select_range=(0, 0))[0])
    return CylOperator(matrix=matrix, grid=grid, bc=bc, params=params, spectral_floor=floor,
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

    Nothing in the package calls it since :func:`lowest_eigs` solves through
    :func:`shifted_inverse`.  It stays only because the benchmark's tracer
    wraps ``fd2d.splu`` by name, so its spans and LU solve counter read 0.
    """
    from scipy.sparse.linalg import splu as scipy_splu
    return scipy_splu(a, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                      options={"SymmetricMode": True})


def shifted_inverse(op: CylOperator, shift: float):
    """``b -> (op.matrix - shift I)^{-1} b`` without factorizing the matrix.

    With ``A_r = Q_r diag(mu) Q_r^T`` and ``A_z = Q_z diag(nu) Q_z^T``,
    ``(T - shift)^{-1}`` is a transform by ``Q_r (x) Q_z``, a division by
    ``mu_p + nu_q - shift`` and the transform back.  The bottom nodes E that
    the window drops (none for the inner problems) are held at 0 by forces
    from the capacitance matrix ``C = Q_r[E] diag(g) Q_r[E]^T``, the E block
    of ``(T - shift)^{-1}`` (``g_p = sum_q Q_z[0, q]^2 / (mu_p + nu_q - shift)``).
    Raises :class:`ConvergenceError` unless every ``mu_p + nu_q - shift`` is
    positive (so, by interlacing, no eigenvalue lies below the shift) and
    ``C`` has a Cholesky factor.
    """
    from scipy.linalg import LinAlgError, cho_factor, cho_solve, eigh_tridiagonal
    mu, q_r = eigh_tridiagonal(*op.radial)
    nu, q_z = eigh_tridiagonal(*op.vertical)
    denom = mu[:, None] + nu[None, :] - shift
    if not np.all(denom > 0.0):
        raise ConvergenceError(f"A - {shift!r} I is not positive definite: "
                               "an eigenvalue lies below the shift")
    inv = 1.0 / denom
    active = op.active
    q_e = q_r[~active[:, 0]]
    z0 = q_z[0]
    try:
        capacitance = cho_factor((q_e * (inv @ z0 ** 2)) @ q_e.T)
    except LinAlgError:
        raise ConvergenceError(f"capacitance matrix at shift {shift!r} is not "
                               "positive definite") from None

    def solve(b):
        x = np.zeros(active.shape)
        x[active] = b
        xh = inv * (q_r.T @ x @ q_z)
        force = q_e.T @ cho_solve(capacitance, q_e @ (xh @ z0))
        xh -= inv * np.outer(force, z0)
        return (q_r @ xh @ q_z.T)[active]
    return solve


def lowest_eigs(op: CylOperator, k: int, max_iter: int = 20000) -> EigResult:
    """k smallest eigenpairs by ARPACK in shift-invert mode.

    The shift is ``0.9 * op.spectral_floor``, below the whole spectrum (see
    the module docstring), so the eigenvalues nearest the shift are the
    lowest ones.  The inverse is applied by :func:`shifted_inverse`, which
    raises :class:`ConvergenceError` unless it proves that no eigenvalue lies
    below the shift.  The Lanczos start vector is all ones, so runs are
    deterministic.  ARPACK stops at the relative Ritz tolerance
    ``ARPACK_TOL`` or after ``max_iter`` restarts.  Residuals are
    ``|A u - lambda u|`` for unit ``u``; if ARPACK stops early or any
    residual exceeds ``EIG_RESIDUAL_TOL``, raises :class:`ConvergenceError`
    with the pair of smallest residual.
    """
    k = int(k)
    if not 1 <= k <= 10:
        raise ValueError("k must be in 1..10")
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh
    m = op.matrix
    n = m.shape[0]
    shift = 0.9 * op.spectral_floor
    opinv = LinearOperator((n, n), matvec=shifted_inverse(op, shift), dtype=np.float64)
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
