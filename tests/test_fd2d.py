"""2-D axisymmetric eigensolver: structure, brackets, and convergence."""

import math

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal
from scipy.sparse.linalg import ArpackNoConvergence

from starklayer import bracket, fd2d, specfun, transverse
from starklayer.transverse import BoundaryType, WaveguideParams

PI = math.pi
ID = fd2d.BCKind.INNER_DIRICHLET
IN = fd2d.BCKind.INNER_NEUMANN
TF = fd2d.BCKind.TRUNCATED_FULL


def radial_oracle(a, nr, m=0, dirichlet_wall=True, count=3):
    """Cell-centered radial FD eigenvalues of -(1/r)(r u')' + m^2/r^2 on (0, a)."""
    h = a / nr
    r = (np.arange(nr) + 0.5) * h
    face = np.arange(nr + 1) * h          # face radii, axis face = 0
    diag = (face[:-1] + face[1:]) / (h * h * r) + m * m / r ** 2
    diag[-1] -= face[-1] / (h * h * r[-1])  # no two-node face at the wall
    if dirichlet_wall:
        diag[-1] += 2.0 * a / (h * h * r[-1])  # half-cell gradient to the wall value 0
    off = -face[1:-1] / (h * h * np.sqrt(r[:-1] * r[1:]))
    return eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, count - 1))


def test_assembled_matrix_exactly_symmetric():
    p = WaveguideParams(F=1.0, d=PI, a=3.0)
    for kind, r_max in ((ID, 3.0), (IN, 3.0), (TF, 16.0)):
        for m in (0, 1):
            op = fd2d.assemble(p, fd2d.CylGrid(24, 16, r_max, PI), fd2d.WindowBC(kind, m))
            asym = op.matrix - op.matrix.T
            assert asym.nnz == 0 or abs(asym).max() == 0.0


def test_dimension_bookkeeping():
    p = WaveguideParams(F=0.0, d=1.0, a=2.0)
    grid = fd2d.CylGrid(16, 12, 2.0, 1.0)
    op = fd2d.assemble(p, grid, fd2d.WindowBC(ID))
    assert op.dimension == 16 * 12      # top plate eliminated, bottom kept
    grid_t = fd2d.CylGrid(16, 12, 16.0, 1.0)
    op_t = fd2d.assemble(p, grid_t, fd2d.WindowBC(TF))
    outside = int(np.sum(grid_t.r_nodes > p.a))
    assert op_t.dimension == 16 * 12 - outside


def test_assemble_validation():
    p = WaveguideParams(F=0.0, d=1.0, a=2.0)
    with pytest.raises(ValueError):
        fd2d.assemble(p, fd2d.CylGrid(16, 12, 7.0, 1.0), fd2d.WindowBC(TF))  # r_max < 4a
    with pytest.raises(ValueError):
        fd2d.assemble(p, fd2d.CylGrid(16, 12, 3.0, 1.0), fd2d.WindowBC(ID))  # r_max != a
    with pytest.raises(ValueError):
        fd2d.CylGrid(4, 12, 1.0, 1.0)
    with pytest.raises(ValueError):
        fd2d.WindowBC(ID, m=-1)


@pytest.mark.parametrize("kind,dirichlet_wall", [(ID, True), (IN, False)])
def test_discrete_tensor_separability(kind, dirichlet_wall):
    """Inner-cylinder 2-D spectra are exact sums of radial and vertical FD modes."""
    p = WaveguideParams(F=1.0, d=PI, a=3.0)
    nr = nz = 128
    op = fd2d.assemble(p, fd2d.CylGrid(nr, nz, 3.0, PI), fd2d.WindowBC(kind))
    got = fd2d.lowest_eigs(op, 3)
    mu_r = radial_oracle(3.0, nr, dirichlet_wall=dirichlet_wall, count=4)
    mu_z = transverse.fd_levels_oracle(p, BoundaryType.NEUMANN_DIRICHLET, 4, nz)
    sums = sorted(float(mr) + mz for mr in mu_r for mz in mu_z)[:3]
    assert got.values == pytest.approx(sums, abs=2e-7)


def test_inner_dirichlet_converges_to_analytic_bracket():
    p = WaveguideParams(F=0.0, d=PI, a=10.0)
    analytic = (specfun.bessel_zero(0, 1) / 10.0) ** 2 + 0.25
    errs = {}
    for n in (32, 64):
        op = fd2d.assemble(p, fd2d.CylGrid(n, n, 10.0, PI), fd2d.WindowBC(ID))
        res = fd2d.lowest_eigs(op, 1)
        errs[n] = abs(res.values[0] - analytic)
        assert res.residuals[0] <= fd2d.EIG_RESIDUAL_TOL
    assert 3.0 <= errs[32] / errs[64] <= 5.0


def test_angular_order_sector():
    p = WaveguideParams(F=0.0, d=PI, a=10.0)
    analytic = (specfun.bessel_zero(1, 1) / 10.0) ** 2 + 0.25
    op = fd2d.assemble(p, fd2d.CylGrid(64, 64, 10.0, PI), fd2d.WindowBC(ID, m=1))
    res = fd2d.lowest_eigs(op, 1)
    assert res.values[0] == pytest.approx(analytic, rel=2e-3)


def test_two_sided_bracket_and_interleaving():
    """Neumann/Dirichlet decoupling sandwiches the window spectrum below the edge.

    Above the essential-spectrum edge the truncated problem produces a
    quasi-continuum set by the truncation radius, so the comparisons only
    apply to values below the edge.
    """
    p = WaveguideParams(F=1.0, d=PI, a=3.0)
    edge = bracket.window(p).upper
    nr = nz = 48
    vals = {}
    for kind, r_max in ((IN, 3.0), (ID, 3.0), (TF, 8.0 * 3.0)):
        op = fd2d.assemble(p, fd2d.CylGrid(nr, nz, r_max, PI), fd2d.WindowBC(kind))
        vals[kind] = fd2d.lowest_eigs(op, 3).values
    h2_tol = 5.0 * 3e-2  # generous discretization allowance at this resolution
    below = [k for k in range(3) if vals[TF][k] < edge]
    assert 0 in below
    for k in below:
        assert vals[IN][k] <= vals[TF][k] + h2_tol
        assert vals[TF][k] <= vals[ID][k] + h2_tol
    for k in below:
        if k >= 1:
            assert vals[ID][k - 1] <= vals[TF][k] + h2_tol


def test_bracket_levels_match_fd2d_inner_dirichlet():
    """Analytic disc levels and the 2-D solver compute the same spectrum."""
    p = WaveguideParams(F=1.0, d=PI, a=3.0)
    win = bracket.window(p)
    ests = [e for e in bracket.dirichlet_disc_levels(p, win.upper + 2.0, 3, 0, 5)
            if e.m == 0][:2]
    op = fd2d.assemble(p, fd2d.CylGrid(96, 96, 3.0, PI), fd2d.WindowBC(ID))
    got = fd2d.lowest_eigs(op, 2)
    for est, val in zip(ests, got.values):
        assert val == pytest.approx(est.lam, rel=2e-3)


def test_window_ground_state_flags_and_estimates():
    p = WaveguideParams(F=0.0, d=PI, a=5.0)
    res = fd2d.window_ground_state(p, nr=64, nz=64, k=1)
    assert res.below_edge[0]
    assert res.eig.values[0] < res.window.upper
    assert res.eig.values[0] > res.window.lower - 10.0 * res.error_estimates[0]
    assert res.error_estimates[0] > 0.0
    assert res.eig.grid.r_max == pytest.approx(40.0)


def test_window_requires_positive_radius():
    with pytest.raises(ValueError):
        fd2d.window_ground_state(WaveguideParams(F=0.0, d=PI, a=0.0))


def test_lowest_eigs_validation_and_convergence_error(monkeypatch):
    p = WaveguideParams(F=0.0, d=PI, a=3.0)
    op = fd2d.assemble(p, fd2d.CylGrid(16, 16, 3.0, PI), fd2d.WindowBC(ID))
    with pytest.raises(ValueError):
        fd2d.lowest_eigs(op, 0)
    with pytest.raises(ValueError):
        fd2d.lowest_eigs(op, 11)

    # ARPACK converges even at maxiter=1 on this grid, so stand in a solver
    # that stops with one partial pair, as ArpackNoConvergence reports it.
    u = np.ones((op.dimension, 1))
    seen = {}

    def stalled(A, k, **kwargs):
        seen.update(kwargs)
        raise ArpackNoConvergence("stalled", np.array([0.9]), u)

    monkeypatch.setattr(fd2d, "eigsh", stalled)
    with pytest.raises(fd2d.ConvergenceError) as err:
        fd2d.lowest_eigs(op, 1, max_iter=1)
    assert seen["maxiter"] == 1
    unit = u[:, 0] / np.linalg.norm(u[:, 0])
    assert err.value.best_value == 0.9
    assert err.value.best_residual == pytest.approx(
        np.linalg.norm(op.matrix @ unit - 0.9 * unit), rel=1e-12)

    # A returned pair whose residual exceeds the bound is not accepted either.
    monkeypatch.setattr(fd2d, "eigsh", lambda A, k, **kwargs: (np.array([0.9]), u))
    with pytest.raises(fd2d.ConvergenceError) as err:
        fd2d.lowest_eigs(op, 1)
    assert err.value.best_value == 0.9
    assert err.value.best_residual > fd2d.EIG_RESIDUAL_TOL


def test_deterministic_eigensolver():
    p = WaveguideParams(F=1.0, d=PI, a=3.0)
    op = fd2d.assemble(p, fd2d.CylGrid(32, 32, 24.0, PI), fd2d.WindowBC(TF))
    r1 = fd2d.lowest_eigs(op, 2)
    r2 = fd2d.lowest_eigs(op, 2)
    assert r1.values == r2.values and r1.residuals == r2.residuals
