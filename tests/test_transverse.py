"""Transverse Stark spectra: closed forms, oracle agreement, invariants."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from starklayer import specfun, transverse
from starklayer.transverse import BoundaryType, WaveguideParams

DD = BoundaryType.DIRICHLET_DIRICHLET
ND = BoundaryType.NEUMANN_DIRICHLET
PI = math.pi


def test_params_validation():
    with pytest.raises(ValueError):
        WaveguideParams(F=-1.0, d=1.0)
    with pytest.raises(ValueError):
        WaveguideParams(F=0.0, d=0.0)
    with pytest.raises(ValueError):
        WaveguideParams(F=0.0, d=1.0, a=-2.0)


def test_field_free_closed_forms():
    p = WaveguideParams(F=0.0, d=PI)
    dd = [lvl.lam for lvl in transverse.levels(p, DD, 3)]
    assert dd == pytest.approx([1.0, 4.0, 9.0], rel=1e-14)
    nd = [lvl.lam for lvl in transverse.levels(p, ND, 2)]
    assert nd == pytest.approx([0.25, 2.25], rel=1e-14)


def test_ground_state_against_oracle_and_perturbation():
    p = WaveguideParams(F=1.0, d=1.0)
    lam = transverse.levels(p, DD, 1)[0].lam
    fd = transverse.fd_levels_oracle(p, DD, 1, 4000)[0]
    assert lam == pytest.approx(fd, rel=1e-6)
    assert abs(lam - (PI ** 2 + 0.5)) < 2e-3  # first-order slope d/2


def test_fd_oracle_exact_spectrum_and_h2_order():
    p = WaveguideParams(F=0.0, d=PI)
    vals = transverse.fd_levels_oracle(p, DD, 3, 4000)
    assert vals == pytest.approx([1.0, 4.0, 9.0], rel=1e-6)

    pf = WaveguideParams(F=1.0, d=1.0)
    exact = transverse.levels(pf, DD, 1)[0].lam
    e_coarse = abs(transverse.fd_levels_oracle(pf, DD, 1, 500)[0] - exact)
    e_fine = abs(transverse.fd_levels_oracle(pf, DD, 1, 1000)[0] - exact)
    assert 3.5 < e_coarse / e_fine < 4.5


def test_fd_oracle_strong_field_mixed():
    p = WaveguideParams(F=50.0, d=1.0)
    lam = transverse.levels(p, ND, 1)[0].lam
    fd = transverse.fd_levels_oracle(p, ND, 1, 4000)[0]
    assert lam == pytest.approx(fd, rel=1e-5)


def test_fd_oracle_validates_nodes():
    with pytest.raises(ValueError):
        transverse.fd_levels_oracle(WaveguideParams(F=0.0, d=1.0), DD, 1, 50)


def test_mixed_below_dirichlet_ordering():
    for F in (0.0, 0.5, 1.0, 5.0, 50.0):
        for d in (1.0, PI):
            p = WaveguideParams(F=F, d=d)
            lam_d = [lvl.lam for lvl in transverse.levels(p, DD, 4)]
            lam_n = [lvl.lam for lvl in transverse.levels(p, ND, 4)]
            assert all(n < dd for n, dd in zip(lam_n, lam_d))


def test_feynman_hellmann_slope():
    h = 1e-3
    grid = [0.5, 1.0, 5.0, 50.0]
    prev = transverse.levels(WaveguideParams(F=0.0, d=1.0), DD, 1)[0].lam
    for F in grid:
        lam = transverse.levels(WaveguideParams(F=F, d=1.0), DD, 1)[0].lam
        assert lam > prev
        prev = lam
    p = WaveguideParams(F=1.0, d=1.0)
    lvl = transverse.levels(p, DD, 1)[0]
    lam_plus = transverse.levels(WaveguideParams(F=1.0 + h, d=1.0), DD, 1)[0].lam
    lam_minus = transverse.levels(WaveguideParams(F=1.0 - h, d=1.0), DD, 1)[0].lam
    slope_fd = (lam_plus - lam_minus) / (2.0 * h)
    slope_hf = specfun.integrate(lambda z: z * transverse.chi(lvl, p, z) ** 2,
                                 0.0, 1.0, 1e-11)
    assert slope_fd == pytest.approx(slope_hf, rel=1e-4)


@pytest.mark.parametrize("s", [0.5, 2.0])
@pytest.mark.parametrize("bc", [DD, ND])
def test_scaling_law(s, bc):
    p = WaveguideParams(F=1.0, d=1.0)
    ps = WaveguideParams(F=s ** 3, d=1.0 / s)
    lam = [lvl.lam for lvl in transverse.levels(p, bc, 3)]
    lam_s = [lvl.lam for lvl in transverse.levels(ps, bc, 3)]
    for a, b in zip(lam, lam_s):
        assert a == pytest.approx(b / s ** 2, rel=1e-8)


@pytest.mark.parametrize("bc", [DD, ND])
def test_normalization_positivity_and_boundary_residuals(bc):
    for F in (1.0, 100.0):
        p = WaveguideParams(F=F, d=1.0)
        lvl = transverse.levels(p, bc, 1)[0]
        z = np.linspace(0.0, 1.0, 4001)
        c = transverse.chi(lvl, p, z)
        h = z[1] - z[0]
        norm = h / 3.0 * (c[0] ** 2 + c[-1] ** 2 + 4 * (c[1::2] ** 2).sum()
                          + 2 * (c[2:-1:2] ** 2).sum())
        assert norm == pytest.approx(1.0, abs=1e-8)
        assert np.all(c[1:-1] > 0.0)
        assert abs(transverse.chi(lvl, p, 1.0)) <= 1e-8
        if bc is DD:
            assert abs(transverse.chi(lvl, p, 0.0)) <= 1e-8
        else:
            assert abs(transverse.chi_prime(lvl, p, 0.0)) <= 1e-8


def test_eigenvalues_strictly_increasing():
    p = WaveguideParams(F=10.0, d=2.0)
    for bc in (DD, ND):
        vals = [lvl.lam for lvl in transverse.levels(p, bc, 8)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_weak_field_formula_collapses_at_zero_field():
    p = WaveguideParams(F=0.0, d=PI)
    assert transverse.asymptotic_weak(p, DD, 1) == pytest.approx(1.0, rel=1e-14)
    assert transverse.asymptotic_weak(p, ND, 1) == pytest.approx(0.25, rel=1e-14)


def test_weak_field_formula_tracks_exact_dirichlet():
    p = WaveguideParams(F=0.01, d=1.0)
    exact = transverse.levels(p, DD, 1)[0].lam
    approx = transverse.asymptotic_weak(p, DD, 1)
    assert approx == pytest.approx(exact, rel=1e-4)


def test_strong_field_companion_matches_exact():
    p = WaveguideParams(F=1e4, d=1.0)
    exact = transverse.levels(p, DD, 1)[0].lam
    companion = transverse.strong_field_airy_level(p, DD, 1)
    assert companion == pytest.approx(exact, rel=1e-6)
    exact_nd = transverse.levels(p, ND, 1)[0].lam
    companion_nd = transverse.strong_field_airy_level(p, ND, 1)
    assert companion_nd == pytest.approx(exact_nd, rel=1e-6)


def test_strong_field_stated_convention_reported_not_asserted():
    p = WaveguideParams(F=1e4, d=1.0)
    stated = transverse.asymptotic_strong(p, DD, 1)
    companion = transverse.strong_field_airy_level(p, DD, 1)
    ratio = stated / companion
    # the two conventions disagree; only sanity of the reported ratio is checked
    assert math.isfinite(ratio) and ratio > 0.0
    with pytest.raises(ValueError):
        transverse.asymptotic_strong(WaveguideParams(F=0.0, d=1.0), DD, 1)


def test_chi1_second_derivative_field_free_identity():
    p = WaveguideParams(F=0.0, d=PI)
    lvl = transverse.levels(p, DD, 1)[0]
    z = np.linspace(0.1, PI - 0.1, 7)
    second = transverse.chi1_second_derivative(lvl, p, z)
    assert second == pytest.approx(-transverse.chi(lvl, p, z), rel=1e-12)


def test_chi1_second_derivative_integrates_negative():
    p = WaveguideParams(F=1.0, d=1.0)
    lvl = transverse.levels(p, DD, 1)[0]
    total = specfun.integrate(lambda z: transverse.chi1_second_derivative(lvl, p, z),
                              0.0, 1.0, 1e-10)
    assert total < 0.0
    assert total == pytest.approx(transverse.chi_prime(lvl, p, 1.0)
                                  - transverse.chi_prime(lvl, p, 0.0), abs=1e-8)


def test_chi1_second_derivative_integration_by_parts():
    p = WaveguideParams(F=1.0, d=1.0)
    lvl = transverse.levels(p, DD, 1)[0]
    lhs = specfun.integrate(
        lambda z: transverse.chi1_second_derivative(lvl, p, z) * transverse.chi(lvl, p, z),
        0.0, 1.0, 1e-10)
    rhs = -specfun.integrate(lambda z: transverse.chi_prime(lvl, p, z) ** 2,
                             0.0, 1.0, 1e-10)
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_chi1_second_derivative_requires_ground_state():
    p = WaveguideParams(F=1.0, d=1.0)
    lvl = transverse.levels(p, ND, 1)[0]
    with pytest.raises(ValueError):
        transverse.chi1_second_derivative(lvl, p, 0.5)


def test_levels_count_validation():
    p = WaveguideParams(F=1.0, d=1.0)
    with pytest.raises(ValueError):
        transverse.levels(p, DD, 0)
    with pytest.raises(ValueError):
        transverse.levels(p, DD, 101)


def test_bracketing_failure_reports_interval(monkeypatch):
    monkeypatch.setattr(transverse, "_det_mantissa", lambda params, bc, lam: np.ones_like(lam))
    monkeypatch.setattr(transverse, "_gap_estimate", lambda *a: 8.0)
    with pytest.raises(transverse.SolverError, match="scanned interval"):
        transverse._scan_roots(WaveguideParams(F=1.0, d=1.0), DD, 1)


@pytest.fixture
def airy_calls(monkeypatch):
    """Counts ``specfun.airy_grid`` calls, the unit of work of the transverse solve."""
    calls = [0]
    kernel = specfun.airy_grid

    def counted(x):
        calls[0] += 1
        return kernel(x)

    monkeypatch.setattr(specfun, "airy_grid", counted)
    return calls


@pytest.mark.parametrize("bc", [DD, ND])
@pytest.mark.parametrize("d", [1.0, PI])
@pytest.mark.parametrize("F", [1e-2, 1.0, 1e2, 1e4])
def test_twenty_levels_airy_call_budget(airy_calls, F, d, bc):
    transverse.levels(WaveguideParams(F=F, d=d), bc, 20)
    assert airy_calls[0] <= 64


def test_ground_levels_airy_call_budget(airy_calls):
    # The six solves behind the windows of the 2-D problems.
    for F in (0.1, 1.0, 10.0):
        for bc in (DD, ND):
            transverse.levels(WaveguideParams(F=F, d=PI), bc, 1)
    assert airy_calls[0] <= 102


def _masked_chi_reference(params, level, z, derivative):
    """The Airy eigenfunction with the zero-coefficient lanes masked after exp."""
    w = params.F ** (1.0 / 3.0)
    ai, aip, bi, bip, xi = specfun.airy_grid(w * z - level.lam / w ** 2)
    da, db = (aip, bip) if derivative else (ai, bi)
    c2 = level.beta * db
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        term2 = np.where(c2 == 0.0, 0.0,
                         np.sign(c2) * np.exp(np.log(np.abs(np.where(c2 == 0.0, 1.0, c2))) + xi))
    out = level.alpha * da * np.exp(-xi) + term2
    return w * out if derivative else out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("F, d, bc", [(1.0, PI, ND), (1e4, PI, DD), (1e8, 1.0, DD), (2e7, 1.0, ND)])
def test_chi_warns_no_overflow_and_matches_masked_reference(F, d, bc):
    # At F = 1e8 and 2e7 the far-wall Airy term has xi in the thousands; where
    # its coefficient is exactly 0 it must not be exponentiated at all.
    p = WaveguideParams(F=F, d=d)
    z = np.linspace(0.0, d, 257)
    (lvl,) = transverse.levels(p, bc, 1)
    assert lvl.basis == "airy"
    for deriv, fn in ((False, transverse.chi), (True, transverse.chi_prime)):
        assert np.array_equal(fn(lvl, p, z), _masked_chi_reference(p, lvl, z, deriv))


def _reference_roots(params, bc, count):
    """The scan one grid point at a time, each bracket refined alone by brentq."""
    def det(t):
        return float(transverse._det_mantissa(params, bc, t))

    floor = 0.5 * max((PI / (2.0 * params.d)) ** 2, 0.5 * params.F ** (2.0 / 3.0))
    roots, lam, f_prev = [], 0.0, det(0.0)
    while len(roots) < count:
        lam_next = lam + transverse._gap_estimate(params, max(lam, floor)) / 8.0
        f_next = det(lam_next)
        if f_prev == 0.0:
            roots.append(lam)
        elif f_prev * f_next < 0.0:
            roots.append(brentq(det, lam, lam_next, xtol=1e-300, rtol=8.9e-16, maxiter=200))
        lam, f_prev = lam_next, f_next
    return roots[:count]


@pytest.mark.parametrize("bc", [DD, ND])
@pytest.mark.parametrize("F", [1e-2, 1.0, 1e4])
def test_lockstep_roots_match_scalar_reference(F, bc):
    p = WaveguideParams(F=F, d=1.0)
    lam = [lvl.lam for lvl in transverse.levels(p, bc, 5)]
    assert lam == pytest.approx(_reference_roots(p, bc, 5), rel=1e-12)


@pytest.mark.parametrize("bc", [DD, ND])
def test_batched_normalization_matches_one_level_at_a_time(bc):
    p = WaveguideParams(F=3.0, d=PI)
    batch = transverse.levels(p, bc, 6)
    for lvl in batch:
        (alone,) = transverse._airy_levels(p, bc, [lvl.lam])
        assert (alone.alpha, alone.beta) == (lvl.alpha, lvl.beta)
