"""Analytic facts of the transverse spectra and certificates, checked over parameter ranges.

Examples are drawn deterministically (``derandomize``) so every run checks
the same points; F is drawn log-uniformly over [1e-2, 1e3] (over {0} and
[1e-2, 1e2] for certificates), the window radius log-uniformly over [0.05, 20]
(for the certified count, uniformly below 0.95 of the order-64 cap).
"""

import math
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from starklayer import bracket, certify, specfun, transverse
from starklayer.transverse import BoundaryType, WaveguideParams

DD = BoundaryType.DIRICHLET_DIRICHLET
ND = BoundaryType.NEUMANN_DIRICHLET

FIELDS = st.floats(-2.0, 3.0).map(lambda e: 10.0 ** e)
CERTIFY_FIELDS = st.just(0.0) | st.floats(-2.0, 2.0).map(lambda e: 10.0 ** e)
FIELDS_WITH_ZERO = st.just(0.0) | FIELDS
WIDTHS = st.floats(0.5, 4.0)
WALLS = st.sampled_from([DD, ND])
RADII = st.floats(math.log(0.05), math.log(20.0)).map(math.exp)

PROPERTY = settings(max_examples=10, deadline=timedelta(seconds=5),
                    derandomize=True, database=None)


def _lams(F, d, bc, count):
    return [lvl.lam for lvl in transverse.levels(WaveguideParams(F=F, d=d), bc, count)]


@PROPERTY
@given(F=FIELDS, d=WIDTHS, s=st.floats(0.5, 2.0), bc=WALLS)
def test_scaling_law(F, d, s, bc):
    # lambda(F, d) = s^-2 lambda(s^3 F, d / s): the operator in units of s.
    lam = _lams(F, d, bc, 3)
    scaled = [v / s ** 2 for v in _lams(s ** 3 * F, d / s, bc, 3)]
    assert scaled == pytest.approx(lam, rel=2 * transverse.LEVEL_REL_TOL)


@PROPERTY
@given(F=FIELDS, d=WIDTHS, bc=WALLS)
def test_levels_strictly_increasing(F, d, bc):
    lam = _lams(F, d, bc, 6)
    assert all(a < b for a, b in zip(lam, lam[1:]))


@PROPERTY
@given(F=FIELDS, d=WIDTHS)
def test_mixed_and_dirichlet_levels_interlace(F, d):
    nd = _lams(F, d, ND, 2)
    dd = _lams(F, d, DD, 1)
    assert nd[0] < dd[0] < nd[1]


@PROPERTY
@given(F=FIELDS_WITH_ZERO, dF=FIELDS, d=WIDTHS)
def test_window_edges_increase_in_field(F, dF, d):
    # d lambda / dF = <z> > 0 for every transverse level.
    weak = bracket.window(WaveguideParams(F=F, d=d))
    strong = bracket.window(WaveguideParams(F=F + dF, d=d))
    assert weak.lower < strong.lower and weak.upper < strong.upper


@PROPERTY
@given(F=FIELDS_WITH_ZERO, d=WIDTHS, u=st.floats(0.01, 1.0), v=st.floats(0.01, 1.0))
def test_count_certified_nondecreasing_in_radius(F, d, u, v):
    # Radii stay below 0.95 a_max, where a_max = j_{64,1} / sqrt(gap) is the
    # largest radius the order cap lets the count certify.
    gap = bracket.window(WaveguideParams(F=F, d=d)).gap
    a_max = specfun.bessel_zero(specfun.MAX_BESSEL_ORDER, 1) / math.sqrt(gap)
    small, large = sorted((0.95 * u * a_max, 0.95 * v * a_max))
    assert (bracket.count_certified(WaveguideParams(F=F, d=d, a=small))
            <= bracket.count_certified(WaveguideParams(F=F, d=d, a=large)))


@PROPERTY
@given(F=CERTIFY_FIELDS, d=WIDTHS, a=RADII)
def test_certificate_is_negative_and_matches_its_decomposition(F, d, a):
    cert = certify.certify(WaveguideParams(F=F, d=d, a=a))
    assert cert.valid
    spec = cert.spec
    decomposition = cert.coeff_A * spec.tau + cert.coeff_B * spec.eps ** 2 - cert.coeff_C * spec.eps
    assert abs(cert.q_value - decomposition) <= 1e-6 * abs(cert.q_value)
