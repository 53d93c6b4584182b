"""Transverse Stark spectra: closed forms, oracle agreement, invariants."""

import math
import sys

import numpy as np
import pytest

from starklayer import bracket, fd2d, specfun, transverse
from starklayer.transverse import BoundaryType, WaveguideParams

import oracles

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


def test_layer_width_range():
    # Inside [1e-100, 1e100] the first 100 levels are finite normal floats,
    # with or without a field; outside, the width is refused with the range.
    for d, lam_100 in ((1e-100, (100 * PI * 1e100) ** 2), (1e100, (100 * PI * 1e-100) ** 2)):
        p = WaveguideParams(F=0.0, d=d)
        lam = [lvl.lam for lvl in transverse.levels(p, DD, 100)]
        assert lam[-1] == pytest.approx(lam_100, rel=1e-14)
        assert all(math.isfinite(v) and abs(v) >= sys.float_info.min for v in lam)
        for F in (1e-8 / d ** 3, 1.0 / d ** 3, 1e8 / d ** 3):   # F d^3 = 1e-8, 1, 1e8
            pf = WaveguideParams(F=F, d=d)
            for bc in (DD, ND):
                lam_f = [lvl.lam for lvl in transverse.levels(pf, bc, 100)]
                assert all(math.isfinite(v) and abs(v) >= sys.float_info.min for v in lam_f)
                assert all(a < b for a, b in zip(lam_f, lam_f[1:]))
                # The scaling law: the same spectrum as at d = 1, in units of d.
                unit = [lvl.lam for lvl in transverse.levels(WaveguideParams(F=F * d ** 3, d=1.0),
                                                             bc, 100)]
                assert [v * d * d for v in lam_f] == pytest.approx(unit, rel=1e-13)
                ground = transverse.levels(pf, bc, 1)[0]
                assert math.isfinite(transverse.chi(ground, pf, 0.5 * d))
    for d in (math.nextafter(1e-100, 0.0), math.nextafter(1e100, math.inf), 1e-103, 1e106):
        with pytest.raises(ValueError, match=r"\[1e-100, 1e\+100\]"):
            WaveguideParams(F=0.0, d=d)


def test_field_whose_f_d_cubed_underflows_is_refused():
    # The field enters the transverse problem only through F d^3; where that
    # rounds to 0 the Airy arguments -lam/F^(2/3) overflow.  The smallest
    # representable F d^3 is solved, and both extremes of F at d = 1.
    with pytest.raises(ValueError, match=r"F\*d\^3 underflows to 0"):
        WaveguideParams(F=1e-200, d=1e-100)
    for F, d in ((5e-324 / 1e-300, 1e-100), (5e-324, 1.0), (1e308, 1.0)):
        p = WaveguideParams(F=F, d=d)
        lam = [lvl.lam for lvl in transverse.levels(p, ND, 100)]
        assert all(math.isfinite(v) for v in lam) and all(a < b for a, b in zip(lam, lam[1:]))


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


def test_fd_oracle_caps_nodes_and_count():
    p = WaveguideParams(F=1.0, d=1.0)
    with pytest.raises(ValueError, match=r"nodes must be in 100\.\.1000000, got 1000001"):
        transverse.fd_levels_oracle(p, DD, 1, 1_000_001)
    # Dirichlet walls keep nodes - 1 unknowns, a Neumann wall keeps nodes.
    with pytest.raises(ValueError, match="count 100 exceeds the 99 unknowns of 100 nodes"):
        transverse.fd_levels_oracle(p, DD, 100, 100)
    assert len(transverse.fd_levels_oracle(p, ND, 100, 100)) == 100


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


@pytest.mark.parametrize("d", [0.5, 1.0, 4.0])
@pytest.mark.parametrize("fraction", [0.9, 1e-3])
def test_levels_below_the_trig_switch_carry_the_stark_shift(d, fraction):
    # Fields below 1e-8 (pi/d)^3, where a trig branch once stood in for the
    # Airy solve: the field-free k^2 alone was up to 3.6e-8 relative off (ND
    # n = 1 at d = 1, F = 3e-7).
    F = fraction * 1e-8 * (PI / d) ** 3
    p = WaveguideParams(F=F, d=d)
    for bc in (DD, ND):
        lams = [lvl.lam for lvl in transverse.levels(p, bc, 20)]
        for n in (1, 7, 13, 20):
            exact = float(oracles.weak_field_level(F, d, bc is ND, n))
            assert abs(lams[n - 1] / exact - 1.0) <= 1e-13, (bc, n)


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


def _chi1_second_derivative(lvl, p, z):
    """chi_1'' from the differential equation chi'' = (F z - lambda) chi."""
    return (p.F * z - lvl.lam) * transverse.chi(lvl, p, z)


def test_chi1_second_derivative_field_free_identity():
    p = WaveguideParams(F=0.0, d=PI)
    lvl = transverse.levels(p, DD, 1)[0]
    z = np.linspace(0.1, PI - 0.1, 7)
    second = _chi1_second_derivative(lvl, p, z)
    assert second == pytest.approx(-transverse.chi(lvl, p, z), rel=1e-12)


def test_chi1_second_derivative_integrates_negative():
    p = WaveguideParams(F=1.0, d=1.0)
    lvl = transverse.levels(p, DD, 1)[0]
    total = specfun.integrate(lambda z: _chi1_second_derivative(lvl, p, z), 0.0, 1.0, 1e-10)
    assert total < 0.0
    assert total == pytest.approx(transverse.chi_prime(lvl, p, 1.0)
                                  - transverse.chi_prime(lvl, p, 0.0), abs=1e-8)


def test_chi1_second_derivative_integration_by_parts():
    p = WaveguideParams(F=1.0, d=1.0)
    lvl = transverse.levels(p, DD, 1)[0]
    lhs = specfun.integrate(
        lambda z: _chi1_second_derivative(lvl, p, z) * transverse.chi(lvl, p, z),
        0.0, 1.0, 1e-10)
    rhs = -specfun.integrate(lambda z: transverse.chi_prime(lvl, p, z) ** 2,
                             0.0, 1.0, 1e-10)
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_levels_count_validation():
    p = WaveguideParams(F=1.0, d=1.0)
    with pytest.raises(ValueError):
        transverse.levels(p, DD, 0)
    with pytest.raises(ValueError):
        transverse.levels(p, DD, 101)


def test_bracketing_failure_reports_interval(monkeypatch):
    # A phase that never reaches its target leaves the min-max bracket
    # without a sign change; the error names the bracket, F, d and the walls.
    def flat(params, bc, lam, n):
        return np.full(lam.shape, -1.0), np.ones(lam.shape), np.ones(lam.shape)

    monkeypatch.setattr(transverse, "_phase", flat)
    with pytest.raises(transverse.SolverError,
                       match=r"level 1 is not bracketed by \[.*\].*\(F=1\.0, d=2\.0, "
                             r"bc=dirichlet-dirichlet\)"):
        transverse.levels(WaveguideParams(F=1.0, d=2.0), DD, 3)


@pytest.mark.parametrize("s", [1.0, 1e-3])
def test_boundary_residual_is_enforced(s):
    # The same weak-field problem in units of s.  A tenth ND level 1e-7
    # relative off misses its phase by about 1.5e-6, which the check refuses;
    # the ground level meets the wall to 1e-12 (1e-12 d^(-3/2) = 3e-8
    # unscaled at s = 1e-3).
    p = WaveguideParams(F=3.2e-7 / s ** 3, d=s)
    ground, *_, excited = transverse.levels(p, ND, 10)
    off = transverse.TransverseLevel(n=10, bc=ND, lam=excited.lam * (1.0 + 1e-7))
    with pytest.raises(transverse.SolverError,
                       match=rf"level 10 .* by 1\.4\de-06 > 1e-08 \(F={p.F}, d={p.d}\)"):
        transverse.chi(off, p, 0.5 * s)
    assert abs(transverse.chi_prime(ground, p, 0.0)) * s ** 1.5 <= transverse.BOUNDARY_RESIDUAL_TOL


@pytest.mark.parametrize("kappa", [3e-7, 1e-4, 1e-1, 10.0, 1e3])
@pytest.mark.parametrize("d", [1.0, PI])
def test_ground_wall_values_match_mpmath(kappa, d):
    # chi_1'(0) (DD), which the certificate's C reads, and chi_1(0) (ND) from
    # the closed-form norm.  Simpson's norm was 2.7e-9 off (DD) at
    # F d^3 = 3.2e-7 and 1.9e-13 off (ND) at F d^3 >= 10.
    F = kappa / d ** 3
    p = WaveguideParams(F=F, d=d)
    _, _, dchi = oracles.dd_ground_state(F, d)
    _, chi, _ = oracles.nd_ground_state(F, d)
    dd, nd = (transverse.levels(p, bc, 1)[0] for bc in (DD, ND))
    assert abs(transverse.chi_prime(dd, p, 0.0) / float(dchi(0)) - 1.0) <= 1e-13
    assert abs(transverse.chi(nd, p, 0.0) / float(chi(0)) - 1.0) <= 1e-13


@pytest.mark.parametrize("bc, kappa", [(ND, 1e15), (ND, 1e18), (ND, 1e30), (DD, 1e100)])
def test_strong_field_eigenfunctions_raise_no_solver_error(bc, kappa):
    # The wall check once measured chi(0) d^(1/2) or chi'(0) d^(3/2) on the
    # width d, not on chi's own length F^(-1/3), and refused these correct
    # levels; the phase miss is free of scale.
    p = WaveguideParams(F=kappa, d=1.0)
    level = transverse.levels(p, bc, 1)[0]
    if bc is DD:
        assert abs(transverse.chi_prime(level, p, 0.0) / math.sqrt(kappa) - 1.0) <= 1e-13
    else:
        limit = math.sqrt(kappa ** (1.0 / 3.0) / 1.0187929716474710890)   # |a'_1|
        assert abs(transverse.chi(level, p, 0.0) / limit - 1.0) <= 1e-13


@pytest.fixture
def airy_calls(monkeypatch):
    """Counts ``specfun.airy_grid`` calls and the points they evaluate: ``[calls, points]``."""
    calls = [0, 0]
    kernel = specfun.airy_grid

    def counted(x):
        calls[0] += 1
        calls[1] += np.asarray(x).size
        return kernel(x)

    monkeypatch.setattr(specfun, "airy_grid", counted)
    return calls


@pytest.mark.parametrize("bc", [DD, ND])
@pytest.mark.parametrize("F, d", [(F, d) for F in (1e-6, 1e-2, 1.0, 1e2, 1e4, 1e8)
                                  for d in (1.0, PI)]
                         + [(kappa / d ** 3, d) for d in (1e-100, 1e100)
                            for kappa in (1e-8, 1.0, 1e8)])
def test_twenty_levels_airy_call_budget(airy_calls, F, d, bc):
    # The bracket-end check and the Newton rounds, also at the extreme widths
    # of test_layer_width_range.
    transverse.levels(WaveguideParams(F=F, d=d), bc, 20)
    assert airy_calls[0] <= 7
    assert airy_calls[1] <= 2000


def test_ground_levels_airy_call_budget(airy_calls):
    # The six solves behind the windows of the 2-D problems.
    for F in (0.1, 1.0, 10.0):
        for bc in (DD, ND):
            transverse.levels(WaveguideParams(F=F, d=PI), bc, 1)
    assert airy_calls[0] <= 40


@pytest.mark.parametrize("bc", [DD, ND])
def test_refinement_cap_reports_open_levels(monkeypatch, bc):
    # At F = 1e4 the wide min-max brackets take more than one Newton round.
    monkeypatch.setattr(transverse, "_MAX_REFINE", 1)
    with pytest.raises(transverse.SolverError,
                       match=rf"root refinement left \d+ brackets open after 1 rounds "
                             rf"\(F=10000\.0, d=1\.0, bc={bc.value}\)"):
        transverse.levels(WaveguideParams(F=1e4, d=1.0), bc, 20)


@pytest.mark.parametrize("bc", [DD, ND])
@pytest.mark.parametrize("F", [1e-9, 1.0, 10.0, 1e12])
def test_one_normalization_costs_one_airy_call_on_two_points(airy_calls, F, bc):
    # The closed-form norm reads the two walls only, on the phase form
    # (lam >= F d) and on the far-wall form alike.
    p = WaveguideParams(F=F, d=1.0)
    for level in transverse.levels(p, bc, 3):
        transverse._scale.cache_clear()
        airy_calls[:] = [0, 0]
        assert transverse._scale(F, 1.0, level) > 0.0
        assert airy_calls[0] <= 1 and airy_calls[1] <= 2


def test_ground_level_solved_once_per_field_and_width(monkeypatch):
    # A sweep over the window radius at fixed (F, d) solves each wall's ground
    # level once: the two-level window and the 2-D shifts share the cache.
    transverse.ground_level.cache_clear()
    calls = []
    solve = transverse.levels

    def counted(params, bc, count):
        calls.append(bc)
        return solve(params, bc, count)

    monkeypatch.setattr(transverse, "levels", counted)
    for a in (0.5, 1.0, 2.0):
        bracket.window(WaveguideParams(F=1.0, d=PI, a=a))
    for a in (1.0, 2.0):
        p = WaveguideParams(F=1.0, d=PI, a=a)
        op = fd2d.assemble(p, fd2d.CylGrid(12, 12, a, PI),
                           fd2d.WindowBC(fd2d.BCKind.INNER_DIRICHLET))
        fd2d.lowest_eigs(op, 1)
    assert len(calls) == 2


def _masked_chi_reference(params, level, z, derivative):
    """The Airy eigenfunction ``alpha*Ai + beta*Bi``, its zero-coefficient lanes masked after exp.

    The coefficients are built from the Airy values at the far wall and scaled
    to unit norm by the solver's factor.
    """
    w = params.F ** (1.0 / 3.0)
    scale = transverse._scale(params.F, params.d, level)
    ai_d, _, bi_d, _, xi_d = specfun.airy_grid(np.array([w * params.d - level.lam / w ** 2]))
    alpha = float(bi_d[0]) * scale                              # Bi(zeta_d) / e^{xi_d}
    beta = -float(ai_d[0]) * math.exp(-2.0 * xi_d[0]) * scale   # -Ai(zeta_d) / e^{xi_d}
    ai, aip, bi, bip, xi = specfun.airy_grid(w * z - level.lam / w ** 2)
    da, db = (aip, bip) if derivative else (ai, bi)
    c2 = beta * db
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        term2 = np.where(c2 == 0.0, 0.0,
                         np.sign(c2) * np.exp(np.log(np.abs(np.where(c2 == 0.0, 1.0, c2))) + xi))
    out = alpha * da * np.exp(-xi) + term2
    return w * out if derivative else out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("F, d, bc", [(1.0, PI, ND), (1e4, PI, DD), (1e8, 1.0, DD), (2e7, 1.0, ND)])
def test_chi_warns_no_overflow_and_matches_masked_reference(F, d, bc):
    # At F = 1e8 and 2e7 the far-wall Airy term has xi in the thousands; where
    # its coefficient is exactly 0 it must not be exponentiated at all.
    p = WaveguideParams(F=F, d=d)
    z = np.linspace(0.0, d, 257)
    (lvl,) = transverse.levels(p, bc, 1)
    assert lvl.lam < F * d   # the far-wall branch, which the reference models
    for deriv, fn in ((False, transverse.chi), (True, transverse.chi_prime)):
        got, ref = fn(lvl, p, z), _masked_chi_reference(p, lvl, z, deriv)
        # At a wall chi or chi' is a rounding of 0, which the two formulas round
        # differently, so the walls get the envelope bound; subnormal values
        # (F = 1e8, 2e7) are held to the smallest normal double.
        np.testing.assert_allclose(got[1:-1], ref[1:-1], rtol=1e-13, atol=np.finfo(float).tiny)
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-13 * np.abs(ref).max())


@pytest.mark.parametrize("bc", [DD, ND])
@pytest.mark.parametrize("F", [1e-2, 1.0, 1e4, 1e8])
def test_lockstep_roots_match_scalar_reference(F, bc):
    # Against each root alone, found by mpmath on the phase equation.
    p = WaveguideParams(F=F, d=1.0)
    lam = [lvl.lam for lvl in transverse.levels(p, bc, 5)]
    want = [float(oracles.transverse_level(F, 1.0, bc is ND, n)) for n in range(1, 6)]
    assert lam == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("bc", [DD, ND])
@pytest.mark.parametrize("d", [1.0, PI])
@pytest.mark.parametrize("F", [1.0, 100.0])
def test_excited_eigenfunctions_orthonormal_and_satisfy_walls(F, d, bc):
    p = WaveguideParams(F=F, d=d)
    lv = transverse.levels(p, bc, 5)
    seen = {}   # the pairs share most abscissae; each chi call costs an Airy evaluation

    def chi(level, z):
        key = (level.n, z.tobytes())
        if key not in seen:
            seen[key] = transverse.chi(level, p, z)
        return seen[key]

    for m in lv:
        for n in lv[m.n - 1:]:
            overlap = specfun.integrate(lambda z: chi(m, z) * chi(n, z), 0.0, d, 1e-12)
            assert abs(overlap - (m.n == n.n)) <= 1e-9
        assert abs(transverse.chi(m, p, d)) <= 1e-10
        if bc is DD:
            assert abs(transverse.chi(m, p, 0.0)) <= 1e-10
        else:
            assert abs(transverse.chi_prime(m, p, 0.0)) <= 1e-10
