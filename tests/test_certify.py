"""Variational certificates: trial-function identities and negativity."""

import math

import numpy as np
import pytest

from starklayer import certify, fd2d, specfun, transverse
from starklayer.transverse import WaveguideParams

import oracles

PI = math.pi

# ||cutoff'||^2 over the unit decay interval: 900 * B(5,5) = 10/7 exactly
# (the quintic smoothstep derivative is 30 t^2 (1-t)^2).
CUTOFF_GRAD_NORM = 10.0 / 7.0


def test_trial_spec_validation():
    with pytest.raises(ValueError):
        certify.TrialSpec(a=1.0, b=0.5, tau=0.1, eps=0.0)
    with pytest.raises(ValueError):
        certify.TrialSpec(a=1.0, b=2.0, tau=0.0, eps=0.0)
    with pytest.raises(ValueError):
        certify.TrialSpec(a=1.0, b=2.0, tau=0.1, eps=-1.0)


def test_bump_support_and_smooth_peak():
    a = 2.0
    r = np.linspace(-1.0, 3.0, 401)
    vals = oracles.bump(r, a)
    assert np.all(vals[(r <= 0.0) | (r >= a)] == 0.0)
    assert oracles.bump(a / 2.0, a) == pytest.approx(math.exp(-1.0), rel=1e-14)
    assert oracles.bump_prime(a / 2.0, a) == pytest.approx(0.0, abs=1e-14)


def test_cutoff_plateau_and_decay():
    b = 4.0
    assert oracles.cutoff_profile(b - 1.0, b) == 1.0
    assert oracles.cutoff_profile(b + certify.CUTOFF_DECAY_WIDTH, b) == 0.0
    assert oracles.cutoff_dilated(b / 2.0, b, 0.3) == 1.0
    assert oracles.cutoff_dilated_prime(b / 2.0, b, 0.3) == 0.0
    s = np.linspace(b, b + certify.CUTOFF_DECAY_WIDTH, 50)
    vals = oracles.cutoff_profile(s, b)
    assert np.all(np.diff(vals) <= 0.0)


def test_cutoff_gradient_norm_closed_form():
    b = 4.0
    direct = specfun.integrate(lambda s: oracles.cutoff_profile_prime(s, b) ** 2,
                               b, b + certify.CUTOFF_DECAY_WIDTH, 1e-11)
    assert direct == pytest.approx(CUTOFF_GRAD_NORM, rel=1e-10)


@pytest.mark.parametrize("tau", [1.0, 0.1, 0.01])
def test_tail_scaling_identity(tau):
    """Weighted tail norm of the dilated cutoff equals tau * ||phi'||^2 exactly."""
    b = 2.0
    n_pan = max(1, int(round(certify.CUTOFF_DECAY_WIDTH / tau)))
    edges = [b * math.exp(j * certify.CUTOFF_DECAY_WIDTH / (tau * n_pan))
             for j in range(n_pan + 1)]
    direct = sum(
        specfun.integrate(lambda r: oracles.cutoff_dilated_prime(r, b, tau) ** 2 * r,
                          lo, hi, 1e-12 / n_pan)
        for lo, hi in zip(edges[:-1], edges[1:]))
    ident = tau * CUTOFF_GRAD_NORM
    assert direct == pytest.approx(ident, rel=1e-8)


def test_pure_cutoff_trial_cost():
    """eps = 0: Q equals 2*pi*tau*||phi'||^2 and is positive."""
    p = WaveguideParams(F=1.0, d=1.0, a=1.0)
    for tau in (0.5, 0.05, 0.005):
        spec = certify.TrialSpec(a=1.0, b=2.0, tau=tau, eps=0.0)
        q = certify.q_functional(p, spec)
        assert q > 0.0
        assert q == pytest.approx(2.0 * PI * tau * CUTOFF_GRAD_NORM, abs=1e-8)


# The closed form makes Q = A*tau + B*eps^2 - C*eps an identity, so the three
# tests below check it against the mpmath integrals of the trial function.

def test_q_is_quadratic_in_eps():
    # Q of the defining integrals, sampled in eps, is the quadratic with the
    # closed-form coefficients.
    p = WaveguideParams(F=1.0, d=1.0, a=1.0)
    A, B, C = certify.coefficients(p, certify.TrialSpec(a=1.0, b=2.0, tau=0.1, eps=0.0))
    eps_samples = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    q_vals = np.array([float(oracles.certificate_q(1.0, 1.0, 1.0, 2.0, 0.1, float(e)))
                       for e in eps_samples])
    coeffs = np.polyfit(eps_samples, q_vals, 2)
    resid = q_vals - np.polyval(coeffs, eps_samples)
    assert np.max(np.abs(resid)) <= 1e-8 * abs(coeffs[0])
    assert coeffs == pytest.approx([B, -C, A * 0.1], rel=1e-8)


def test_q_matches_coefficient_decomposition():
    p = WaveguideParams(F=1.0, d=1.0, a=1.0)
    spec = certify.TrialSpec(a=1.0, b=2.0, tau=0.2, eps=0.7)
    A, B, C = certify.coefficients(p, spec)
    direct = float(oracles.certificate_q(1.0, 1.0, 1.0, spec.b, spec.tau, spec.eps))
    assert direct == pytest.approx(A * spec.tau + B * spec.eps ** 2 - C * spec.eps,
                                   rel=1e-9)


def test_q_at_optimal_eps():
    p = WaveguideParams(F=1.0, d=1.0, a=1.0)
    spec = certify.TrialSpec(a=1.0, b=2.0, tau=0.05, eps=0.0)
    A, B, C = certify.coefficients(p, spec)
    assert B > 0.0
    eps_opt = C / (2.0 * B)
    q = float(oracles.certificate_q(1.0, 1.0, 1.0, 2.0, 0.05, eps_opt))
    assert q == pytest.approx(A * 0.05 - C ** 2 / (4.0 * B), rel=1e-9)


@pytest.mark.parametrize("F, d, a", [(1e-2, 1.0, 1.0), (0.01, 1.0, 20.0), (100.0, 1.0, 0.05),
                                     (10.0, PI, 3.0), (1e4, PI, 1.0), (1.5e5, 1.0, 1.0),
                                     (1e8, 1.0, 0.5)])
def test_certificate_matches_oracle_across_fields(F, d, a):
    # F*d^3 from 1e-2 to 1e8, including the three commands that failed with
    # the quadrature certificate ((1e4, pi, 1) and (1.5e5, 1, 1) among them).
    p = WaveguideParams(F=F, d=d, a=a)
    cert = certify.certify(p)
    spec = cert.spec
    q = float(oracles.certificate_q(F, d, a, spec.b, spec.tau, spec.eps))
    assert q < 0.0
    assert cert.q_value == pytest.approx(q, rel=1e-9)
    assert certify.q_functional(p, spec) == cert.q_value


def test_bump_moments_are_the_mpmath_values():
    shipped = (certify._BUMP_I2, certify._BUMP_I4, certify._BUMP_IG)
    for value, exact in zip(shipped, oracles.bump_moments(dps=30)):
        assert abs(value - float(exact)) <= 2.0 * math.ulp(value)
    # The moments are those of the trial function's bump phi(r) = g(r/a), at any radius.
    a = 0.7
    i2 = specfun.integrate(lambda r: oracles.bump(r, a) ** 2 * r, 0.0, a, 1e-14)
    assert i2 == pytest.approx(a * a * certify._BUMP_I2, rel=1e-10)


def test_coefficient_A_universal():
    specs = [
        (WaveguideParams(F=1.0, d=1.0, a=1.0), certify.TrialSpec(a=1.0, b=2.0, tau=0.1, eps=0.1)),
        (WaveguideParams(F=50.0, d=PI, a=3.0), certify.TrialSpec(a=3.0, b=6.0, tau=0.1, eps=0.1)),
    ]
    values = [certify.coefficients(p, s)[0] for p, s in specs]
    assert values[0] == pytest.approx(values[1], rel=1e-10)
    assert values[0] == pytest.approx(2.0 * PI * CUTOFF_GRAD_NORM, rel=1e-10)


def test_coefficient_C_closed_form_field_free():
    p = WaveguideParams(F=0.0, d=PI, a=2.0)
    spec = certify.TrialSpec(a=2.0, b=4.0, tau=0.5, eps=0.1)
    _, _, C = certify.coefficients(p, spec)
    i_phi2 = specfun.integrate(lambda r: oracles.bump(r, 2.0) ** 2 * r, 0.0, 2.0, 1e-13)
    # The cross term of Q is 2*eps * 2*pi * i_phi2 * Z with, for psi = 1 - z/d,
    #   Z = int_0^d (chi_1' psi' + (F z - lam) chi_1 psi) dz
    #     = [chi_1' psi]_0^d - int_0^d (chi_1'' - (F z - lam) chi_1) psi dz = -chi_1'(0),
    # since psi(d) = 0 and chi_1'' = (F z - lam) chi_1.  So C = 4*pi*i_phi2*chi_1'(0),
    # and chi_1 = sqrt(2/pi) sin z gives chi_1'(0) = sqrt(2/pi).  A bump constant
    # in z (psi = 1) would give Z = chi_1'(d) - chi_1'(0), twice this: half of it
    # the flux through the Dirichlet wall z = d, where that bump does not vanish.
    expected = 4.0 * PI * i_phi2 * math.sqrt(2.0 / PI)
    assert C == pytest.approx(expected, rel=1e-9)


def test_coefficient_C_positive_across_parameters():
    for F, d, a in [(0.0, 1.0, 0.5), (1.0, 1.0, 1.0), (10.0, PI, 2.0), (100.0, 1.0, 0.1)]:
        p = WaveguideParams(F=F, d=d, a=a)
        spec = certify.TrialSpec(a=a, b=2 * a, tau=0.1, eps=0.1)
        _, _, C = certify.coefficients(p, spec)
        assert C > 0.0


def test_certify_basic_negative_value():
    cert = certify.certify(WaveguideParams(F=1.0, d=1.0, a=1.0))
    assert cert.q_value < 0.0
    assert cert.valid
    assert cert.coeff_A > 0.0 and cert.coeff_C > 0.0
    assert cert.window.lower < cert.window.upper
    decomposition = (cert.coeff_A * cert.spec.tau + cert.coeff_B * cert.spec.eps ** 2
                     - cert.coeff_C * cert.spec.eps)
    assert cert.q_value == pytest.approx(decomposition, rel=1e-6)


@pytest.mark.parametrize("F, d, a", [(1.0, 1.0, 1.0), (10.0, 1.0, 1.0), (100.0, 1.0, 0.05),
                                     (1.0, PI, 3.0)])
def test_certify_airy_call_budget(monkeypatch, F, d, a):
    p = WaveguideParams(F=F, d=d, a=a)
    certify.certify(p)  # caches the transverse ground states
    calls = [0]
    kernel = specfun.airy_grid

    def counted(x):
        calls[0] += 1
        return kernel(x)

    monkeypatch.setattr(specfun, "airy_grid", counted)
    assert certify.certify(p).valid
    assert calls[0] <= 32


def test_cold_certify_makes_no_quadrature(monkeypatch):
    transverse.ground_level.cache_clear()
    transverse._scale.cache_clear()
    calls = [0]
    quadrature = specfun.integrate

    def counted(*args, **kwargs):
        calls[0] += 1
        return quadrature(*args, **kwargs)

    monkeypatch.setattr(specfun, "integrate", counted)
    assert certify.certify(WaveguideParams(F=1.0, d=1.0, a=1.0)).valid
    assert calls[0] == 0


def test_certify_accepts_field_free_configuration():
    cert = certify.certify(WaveguideParams(F=0.0, d=PI, a=1.0))
    assert cert.q_value < 0.0


def test_certify_refuses_an_infinite_q():
    # C grows as a^2 and overflows near a = 3.78e153 at F = d = 1, where Q
    # would be -inf; just below, the certificate is finite.
    below = certify.certify(WaveguideParams(F=1.0, d=1.0, a=3.7e153))
    assert below.valid and math.isfinite(below.q_value)
    for a in (3.9e153, 2e154, 1e300):
        with pytest.raises(certify.CertificateError, match="not finite"):
            certify.certify(WaveguideParams(F=1.0, d=1.0, a=a))


def test_certify_requires_window():
    with pytest.raises(ValueError):
        certify.certify(WaveguideParams(F=1.0, d=1.0, a=0.0))


def test_certificate_soundness_against_fd2d():
    """A valid certificate implies the 2-D solver finds a state below the edge."""
    p = WaveguideParams(F=1.0, d=1.0, a=1.0)
    cert = certify.certify(p)
    assert cert.valid
    res = fd2d.window_ground_state(p, nr=64, nz=64, k=1)
    margin = cert.window.upper - res.eig.values[0]
    assert margin > 3.0 * res.error_estimates[0]
    assert res.below_edge[0]


def test_monotone_refinement_in_truncation_radius():
    p = WaveguideParams(F=1.0, d=1.0, a=1.0)
    values = []
    for r_max in (4.0, 8.0, 16.0):
        grid = fd2d.CylGrid(64, 48, r_max, p.d)
        op = fd2d.assemble(p, grid, fd2d.WindowBC(fd2d.BCKind.TRUNCATED_FULL))
        values.append(fd2d.lowest_eigs(op, 1).values[0])
    assert values[0] >= values[1] >= values[2] - 1e-12
