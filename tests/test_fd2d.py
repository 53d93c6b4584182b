"""2-D axisymmetric eigensolver: structure, brackets, and convergence."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
import oracles
import scipy.sparse.linalg
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import eigvalsh, eigvalsh_tridiagonal
from test_cli import _SCIPY_PROBE
from test_properties import PROPERTY

from starklayer import bracket, cli, fd2d, specfun, transverse
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


@pytest.mark.parametrize("r_max, d", [(math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf),
                                      (0.0, 1.0), (8e155, 1.0), (8e-156, 1.0), (1.0, 8e-156)])
def test_grid_refuses_extents_and_spacings_out_of_range(r_max, d):
    with pytest.raises(ValueError, match="outside \\[1e-154, 1e154\\]"):
        fd2d.CylGrid(8, 8, r_max, d)


def test_grid_refuses_sizes_past_the_cap():
    # The solvers hold dense nr x nr and nz x nz factors: 2048 cells per
    # axis is the cap, for solve2d and window_ground_state alike.
    assert fd2d.CylGrid(2048, 2048, 1.0, 1.0).nr == 2048
    for nr, nz in ((2049, 8), (8, 2049)):
        with pytest.raises(ValueError, match="grid needs 8 <= nr, nz <= 2048"):
            fd2d.CylGrid(nr, nz, 1.0, 1.0)
    with pytest.raises(ValueError, match="got nr=2049, nz=128"):
        fd2d.window_ground_state(WaveguideParams(F=1.0, d=1.0, a=1.0), nr=2049)


def test_grid_spacing_range_keeps_squares_and_inverse_squares_finite():
    for h in (1e-154, 1e154):
        grid = fd2d.CylGrid(8, 8, 8 * h, 1.0)
        assert 0.0 < grid.h_r ** 2 < math.inf and 0.0 < grid.h_r ** -2 < math.inf


@pytest.mark.parametrize("kind", list(fd2d.BCKind))
@pytest.mark.parametrize("F, d, nz", [(0.0, PI, 8), (1.0, PI, 64), (94.0, 1.0, 33), (1e4, 2.5, 200)])
def test_vertical_factor_is_the_transverse_fd_operator(F, d, nz, kind):
    # One z operator for the 2-D solver and the FD oracle: the vertical factor
    # and the spectral floor are the builder's matrix and its lowest
    # eigenvalue, bit for bit.
    p = WaveguideParams(F=F, d=d, a=1.0)
    op = fd2d.assemble(p, fd2d.CylGrid(16, nz, 8.0 if kind is TF else 1.0, d), fd2d.WindowBC(kind))
    diag, off = transverse._fd_operator(F, d, nz)
    assert op.vertical[0].tobytes() == diag.tobytes()
    assert op.vertical[1].tobytes() == off.tobytes()
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    assert op.spectral_floor == np.linalg.eigh(dense)[0][0]


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
    ests = [e for e in bracket.dirichlet_disc_levels(p, win.upper + 2.0)
            if e.n <= 3 and e.m == 0 and e.k <= 5][:2]
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
    ops = [fd2d.assemble(p, fd2d.CylGrid(16, 16, r_max, PI), fd2d.WindowBC(kind))
           for kind, r_max in ((ID, 3.0), (TF, 24.0))]
    with pytest.raises(ValueError):
        fd2d.lowest_eigs(ops[0], 0)
    with pytest.raises(ValueError):
        fd2d.lowest_eigs(ops[0], 11)

    # A residual bound of 0 rejects the pairs the solver returns; the error
    # carries the one of smallest residual.
    results = [fd2d.lowest_eigs(op, 2) for op in ops]
    monkeypatch.setattr(fd2d, "EIG_RESIDUAL_TOL", 0.0)
    for op, res in zip(ops, results):
        with pytest.raises(fd2d.ConvergenceError) as err:
            fd2d.lowest_eigs(op, 2)
        best = int(np.argmin(res.residuals))
        assert err.value.best_value == res.values[best]
        assert err.value.best_residual == res.residuals[best]


def _no_lu(*args, **kwargs):
    raise AssertionError("sparse LU called")


def _no_arpack(*args, **kwargs):
    raise AssertionError("ARPACK called")


@pytest.mark.parametrize("m", [0, 2])
@pytest.mark.parametrize("kind", list(fd2d.BCKind))
def test_lowest_eigs_makes_no_sparse_lu_and_inverts_exactly(monkeypatch, kind, m):
    # No factorization and no ARPACK: the count of eigenvalues below lam, which
    # the solver inverts, equals the dense count.
    monkeypatch.setattr(fd2d, "splu", _no_lu)
    monkeypatch.setattr(scipy.sparse.linalg, "splu", _no_lu)
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", _no_arpack)
    p = WaveguideParams(F=1.0, d=PI, a=3.0)
    op = fd2d.assemble(p, fd2d.CylGrid(16, 16, 12.0 if kind is TF else 3.0, PI),
                       fd2d.WindowBC(kind, m))
    assert len(fd2d.lowest_eigs(op, 2).values) == 2

    dense = eigvalsh(op.matrix.toarray())
    for lam in np.random.default_rng(16).uniform(dense[0] - 1.0, dense[40], 10):
        assert fd2d.count_below(op, lam) == np.count_nonzero(dense < lam)


def test_count_below_between_the_two_lowest_eigenvalues_is_one():
    p = WaveguideParams(F=1.0, d=PI, a=3.0)
    op = fd2d.assemble(p, fd2d.CylGrid(16, 16, 12.0, PI), fd2d.WindowBC(TF))
    lam = eigvalsh(op.matrix.toarray(), subset_by_index=(0, 1))
    assert fd2d.count_below(op, 0.5 * (lam[0] + lam[1])) == 1


def test_readme_window_solve_makes_13_counts(monkeypatch):
    # A work counter, not a clock: Schur complement evaluations (each one a
    # count) on the README solve2d case (128^2 window, k = 2).
    real = fd2d._Slicer.__call__
    count = [0]

    def counting(self, lam):
        count[0] += 1
        return real(self, lam)

    monkeypatch.setattr(fd2d._Slicer, "__call__", counting)
    op = fd2d.assemble(WaveguideParams(F=1.0, d=PI, a=3.0), fd2d.CylGrid(128, 128, 24.0, PI),
                       fd2d.WindowBC(TF))
    assert len(fd2d.lowest_eigs(op, 2).values) == 2
    assert count[0] == 13


def test_window_residuals_at_256_are_a_few_eps_times_the_norm():
    # Measured: 4.3 eps |A|_inf at this size.
    op = fd2d.assemble(WaveguideParams(F=1.0, d=PI, a=3.0), fd2d.CylGrid(256, 256, 24.0, PI),
                       fd2d.WindowBC(TF))
    norm = abs(op.matrix).sum(axis=1).max()
    assert max(fd2d.lowest_eigs(op, 2).residuals) <= 64 * np.finfo(float).eps * norm


@PROPERTY
@given(F=st.just(0.0) | st.floats(-3.0, 6.0).map(lambda e: 10.0 ** e),
       d=st.floats(0.5, 4.0), a=st.floats(0.2, 5.0),
       nr=st.integers(8, 20), nz=st.integers(8, 20),
       kind=st.sampled_from(list(fd2d.BCKind)), m=st.integers(0, 2))
def test_assemble_matches_the_quadratic_form(F, d, a, nr, nz, kind, m):
    p = WaveguideParams(F=F, d=d, a=a)
    grid = fd2d.CylGrid(nr, nz, 8.0 * a if kind is TF else a, d)
    got = fd2d.assemble(p, grid, fd2d.WindowBC(kind, m)).matrix
    want = oracles.quadratic_form_matrix(p, grid, fd2d.WindowBC(kind, m))
    got.sort_indices()
    want.sort_indices()
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    # A diagonal entry sums up to six positive terms, each a few roundings deep,
    # on either side (worst seen 4.3 eps over 2000 random grids).
    assert np.all(np.abs(got.data - want.data) <= 8 * np.finfo(float).eps * np.abs(want.data))


def test_solve2d_coarse_z_grid_prints_the_lowest_eigenvalues(capsys):
    # 0.9 x the continuum ND level lies above this coarse grid's whole spectrum,
    # where ARPACK finds 239.590 and 263.193 instead of the lowest eigenvalues.
    argv = ["solve2d", "--F", "10000", "--d", "3.141592653589793", "--a", "1",
            "--problem", "inner-neumann", "--nr", "8", "--nz", "8", "--k", "2"]
    assert cli.main(argv) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
    op = fd2d.assemble(WaveguideParams(F=1e4, d=PI, a=1.0), fd2d.CylGrid(8, 8, 1.0, PI),
                       fd2d.WindowBC(IN))
    dense = eigvalsh(op.matrix.toarray(), subset_by_index=(0, 1))
    assert [float(r[1]) for r in rows] == pytest.approx(dense, rel=1e-9)


def test_lowest_eigs_strong_field_default_z_grid():
    op = fd2d.assemble(WaveguideParams(F=1e4, d=PI, a=1.0), fd2d.CylGrid(8, 64, 1.0, PI),
                       fd2d.WindowBC(IN))
    dense = eigvalsh(op.matrix.toarray(), subset_by_index=(0, 1))
    assert fd2d.lowest_eigs(op, 2).values == pytest.approx(dense, rel=1e-9)


@PROPERTY
@given(F=st.just(0.0) | st.floats(-3.0, 6.0).map(lambda e: 10.0 ** e),
       d=st.floats(0.5, 4.0), a=st.floats(0.2, 5.0),
       nr=st.integers(8, 20), nz=st.integers(8, 20),
       kind=st.sampled_from(list(fd2d.BCKind)), m=st.integers(0, 2), k=st.integers(1, 3))
def test_lowest_eigs_are_the_lowest_or_fail_fast(F, d, a, nr, nz, kind, m, k):
    p = WaveguideParams(F=F, d=d, a=a)
    r_max = 8.0 * a if kind is TF else a
    op = fd2d.assemble(p, fd2d.CylGrid(nr, nz, r_max, d), fd2d.WindowBC(kind, m))
    mat = op.matrix.toarray()
    dense = eigvalsh(mat)
    # Inner-neumann m = 0 has lambda_min == floor exactly, so allow for the dense
    # solver's own absolute error, a few eps * |A|.
    slack = 4.0 * np.finfo(float).eps * np.abs(mat).sum(axis=1).max()
    assert op.spectral_floor <= dense[0] * (1.0 + 1e-12) + slack
    try:
        got = fd2d.lowest_eigs(op, k).values
    except fd2d.ConvergenceError:
        return
    assert got == pytest.approx(dense[:k], rel=1e-9)


def test_deterministic_eigensolver():
    p = WaveguideParams(F=1.0, d=PI, a=3.0)
    op = fd2d.assemble(p, fd2d.CylGrid(32, 32, 24.0, PI), fd2d.WindowBC(TF))
    r1 = fd2d.lowest_eigs(op, 2)
    r2 = fd2d.lowest_eigs(op, 2)
    assert r1.values == r2.values and r1.residuals == r2.residuals


def _poles(op, count):
    """The lowest sums of radial and vertical factor eigenvalues of the op's Kronecker part.

    Read from the solver's slicer, so that they are its poles to the last bit.
    """
    return np.sort(fd2d._Slicer(op).poles, axis=None)[:count]


@PROPERTY
@given(F=st.just(0.0) | st.floats(-3.0, 6.0).map(lambda e: 10.0 ** e),
       d=st.floats(0.5, 4.0), a=st.floats(0.2, 5.0),
       nr=st.integers(8, 20), nz=st.integers(8, 20),
       kind=st.sampled_from(list(fd2d.BCKind)), m=st.integers(0, 2),
       seed=st.integers(0, 2 ** 32 - 1))
def test_count_below_equals_the_dense_count(F, d, a, nr, nz, kind, m, seed):
    p = WaveguideParams(F=F, d=d, a=a)
    op = fd2d.assemble(p, fd2d.CylGrid(nr, nz, 8.0 * a if kind is TF else a, d),
                       fd2d.WindowBC(kind, m))
    mat = op.matrix.toarray()
    dense = eigvalsh(mat)
    # 20 random lam over the lower half of the spectrum, and the three lowest
    # poles, where the count is the limit from below.
    lams = np.concatenate([
        np.random.default_rng(seed).uniform(dense[0] * 0.9, dense[len(dense) // 2], 20),
        _poles(op, 3)])
    for lam in lams:
        if np.min(np.abs(dense - lam)) <= 1e-10 * abs(lam):
            continue
        assert fd2d.count_below(op, lam) == np.count_nonzero(dense < lam)


@pytest.mark.parametrize("m", [0, 1])
@pytest.mark.parametrize("kind", list(fd2d.BCKind))
def test_lowest_ten_match_dense(kind, m):
    p = WaveguideParams(F=1.0, d=PI, a=2.0)
    op = fd2d.assemble(p, fd2d.CylGrid(12, 10, 16.0 if kind is TF else 2.0, PI),
                       fd2d.WindowBC(kind, m))
    res = fd2d.lowest_eigs(op, 10)
    assert res.values == pytest.approx(eigvalsh(op.matrix.toarray())[:10], rel=1e-12)
    assert max(res.residuals) <= fd2d.EIG_RESIDUAL_TOL


def test_window_without_a_kept_bottom_node():
    # a < h_r / 2: every bottom node is Dirichlet, so the window matrix is the
    # Kronecker sum of the radial factor and the vertical one less its bottom row.
    p = WaveguideParams(F=1.0, d=PI, a=0.1)
    op = fd2d.assemble(p, fd2d.CylGrid(16, 12, 8.0, PI), fd2d.WindowBC(TF))
    assert not op.active[:, 0].any()
    mat = op.matrix.toarray()
    dense = eigvalsh(mat)
    res = fd2d.lowest_eigs(op, 3)
    assert res.values == pytest.approx(dense[:3], rel=1e-12)
    assert res.values == pytest.approx(_poles(op, 3), rel=1e-12)
    for lam in (dense[0] - 0.5, 0.5 * (dense[0] + dense[1]), dense[5] + 0.1):
        assert fd2d.count_below(op, lam) == np.count_nonzero(dense < lam)


@pytest.mark.parametrize("problem", ["window", "inner-neumann"])
def test_solve2d_loads_no_sparse_linalg(problem):
    # A fresh process: the factors are diagonalized by numpy and the residual
    # is a stencil, so the 2-D solve needs no scipy module at all.
    argv = ["solve2d", "--F", "1", "--d", "3.141592653589793", "--a", "3",
            "--problem", problem, "--nr", "32", "--nz", "32", "--k", "2"]
    src = os.path.dirname(os.path.dirname(fd2d.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, *argv], env=env,
                         check=True, capture_output=True, text=True)
    assert out.stdout.split() == []


def test_factor_solves_are_memoized_across_radii():
    # A work counter: five window radii share the scale-free radial factor
    # h_r^2 A_r and the vertical factor with and without its bottom row, so a
    # cold memo misses exactly three times.
    radii = np.linspace(1.0, 5.0, 5)

    def solve(a):
        op = fd2d.assemble(WaveguideParams(F=1.0, d=PI, a=a), fd2d.CylGrid(64, 64, 8.0 * a, PI),
                           fd2d.WindowBC(TF))
        return fd2d.lowest_eigs(op, 2)

    fd2d._factor_eigh.cache_clear()
    warm = [solve(a) for a in radii]
    assert fd2d._factor_eigh.cache_info().misses == 3
    for a, res in zip(radii, warm):
        fd2d._factor_eigh.cache_clear()
        cold = solve(a)
        assert cold.values == res.values and cold.residuals == res.residuals


def test_memoized_factor_eigenpairs_are_read_only():
    diag, off = np.full(8, 2.0), np.full(7, -1.0)
    for x in fd2d._factor_eigh(diag.tobytes(), off.tobytes()):
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0


@pytest.mark.parametrize("kind", list(fd2d.BCKind))
def test_stencil_product_matches_the_matrix(kind):
    p = WaveguideParams(F=1.0, d=PI, a=3.0)
    op = fd2d.assemble(p, fd2d.CylGrid(16, 12, 12.0 if kind is TF else 3.0, PI),
                       fd2d.WindowBC(kind, 1))
    u = np.random.default_rng(27).standard_normal(op.dimension)
    x = np.zeros(op.active.shape)
    x[op.active] = u
    want = op.matrix @ u
    got = fd2d._apply(op, x)[op.active]
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)
