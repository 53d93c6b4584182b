"""Analytic facts of the transverse spectra and certificates, checked over parameter ranges.

Examples are drawn deterministically (``derandomize``) so every run checks
the same points; Airy arguments are drawn uniformly over [-8.5, 8.5], plus
every piece boundary of the Chebyshev table and the doubles beside it; F is
drawn log-uniformly over [1e-2, 1e3], the window radius log-uniformly over
[0.05, 20] (for the certified count, uniformly below 0.95 of the order-64
cap; for the bracket list, thresholds up to that cap or to 99 mixed levels).
Certificates take the dimensionless field F*d^3 from {0} and
log-uniformly from [1e-9, 1e8], and a/d log-uniformly from [3e-3, 30];
strong-field certificates take F*d^3 log-uniformly from [1e8, 1e30] and a
log-uniformly from [0.1, 10].
Eigenfunctions take levels n <= 10 at F = 0, below 1e-8 (pi/d)^3, or
log-uniform over [1e-2, 1e6].  Levels n <= 20 meet mpmath's roots for F
log-uniform over [1e-12, 1e-3] (pi/d)^3 or F*d^3 over [1e-2, 1e4], and the
ground wall values their Airy limits for F*d^3 log-uniform over [1e8, 1e200].
Bessel zeros are read in random order from up to three orders m <= 64, at
indices k <= 100, the shipped table.  CLI invocations take the benchmark's ranges:
d in {1, pi}, F = 0 or log-uniform over [1e-2, 1e4] for ``levels`` and over
[1e-2, 1] for the other commands, ``bracket`` radii log-uniform over
[0.5, 100] (past 82.8 at d = pi it exits 1), ``threshold`` indices 1..30,
``certify`` radii log-uniform over [0.05, 20].
"""

import contextlib
import functools
import io
import math
from datetime import timedelta

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import jn_zeros

from starklayer import bracket, certify, cli, specfun, transverse
from starklayer.transverse import BoundaryType, WaveguideParams

import oracles

DD = BoundaryType.DIRICHLET_DIRICHLET
ND = BoundaryType.NEUMANN_DIRICHLET

FIELDS = st.floats(-2.0, 3.0).map(lambda e: 10.0 ** e)
CERTIFY_FIELDS = st.just(0.0) | st.floats(-9.0, 8.0).map(lambda e: 10.0 ** e)  # F*d^3
CERTIFY_ASPECTS = st.floats(math.log(3e-3), math.log(30.0)).map(math.exp)  # a/d
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


@st.composite
def _fields_for_levels(draw):
    """(F, d): F log-uniform over [1e-12, 1e-3] (pi/d)^3, or F d^3 over [1e-2, 1e4]."""
    d = draw(WIDTHS)
    if draw(st.booleans()):
        return 10.0 ** draw(st.floats(-12.0, -3.0)) * (math.pi / d) ** 3, d
    return 10.0 ** draw(st.floats(-2.0, 4.0)) / d ** 3, d


@settings(PROPERTY, max_examples=40)
@given(Fd=_fields_for_levels(), bc=WALLS, n=st.integers(1, 20))
@example(Fd=(3.2e-7, 1.0), bc=DD, n=20)
@example(Fd=(1e-12 * math.pi ** 3, 1.0), bc=ND, n=1)
@example(Fd=(1e-2, 1.0), bc=DD, n=20)
@example(Fd=(1e4 / 64.0, 4.0), bc=ND, n=20)
def test_levels_match_the_mpmath_phase_roots(Fd, bc, n):
    # The weak-field rows were up to 7.5e-7 relative off (n = 20 at
    # F d^3 = 3.2e-7) when the levels came from a sign scan of the determinant.
    F, d = Fd
    lam = _lams(F, d, bc, n)[-1]
    assert abs(lam / float(oracles.transverse_level(F, d, bc is ND, n)) - 1.0) <= 1e-13


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


@st.composite
def _fields_in_every_regime(draw):
    """(F, d): F = 0, below 1e-8 (pi/d)^3, or log-uniform over [1e-2, 1e6]."""
    d = draw(WIDTHS)
    switch = 1e-8 * (math.pi / d) ** 3
    F = draw(st.just(0.0)
             | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(lambda u: u * switch)
             | st.floats(-2.0, 6.0).map(lambda e: 10.0 ** e))
    return F, d


@PROPERTY
@given(Fd=_fields_in_every_regime(), bc=WALLS, n=st.integers(1, 10))
@example(Fd=(0.0, 0.5), bc=DD, n=10)
@example(Fd=(2e-9, 4.0), bc=ND, n=7)
@example(Fd=(1e-2, 0.5), bc=DD, n=1)
@example(Fd=(1e6, 4.0), bc=ND, n=10)
def test_eigenfunction_sign_and_norm_in_every_regime(Fd, bc, n):
    # chi'(d) < 0 fixes the sign of every level, and the ground state is then
    # positive: on the allowed side of the turning point, and not negative
    # beyond it, where it may underflow to 0.
    F, d = Fd
    p = WaveguideParams(F=F, d=d)
    level = transverse.levels(p, bc, n)[-1]
    slope = transverse.chi_prime(level, p, d)
    # Past xi_d = 745 the slope -e^{-xi_d}/pi underflows, and keeps its sign.
    assert slope < 0.0 or (slope == 0.0 and math.copysign(1.0, slope) < 0.0)
    turn = [level.lam / F] if F > 0.0 and level.lam / F < d else []
    norm = specfun.integrate(lambda z: transverse.chi(level, p, z) ** 2, 0.0, d, 1e-11,
                             breakpoints=turn)
    assert abs(norm - 1.0) <= 1e-9
    if n == 1:
        z = np.linspace(0.0, d, 201)[1:-1]
        chi = transverse.chi(level, p, z)
        assert np.all(chi[z < min(turn, default=d)] > 0.0) and np.all(chi >= 0.0)


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


@functools.lru_cache(maxsize=None)
def _scipy_zeros(m):
    # j_{64,1} = 71.68 bounds every zero below the order cap: J_0 has 23 below it.
    return jn_zeros(m, 24)


@PROPERTY
@given(F=FIELDS_WITH_ZERO, d=WIDTHS, a=RADII, u=st.floats(-0.1, 1.0))
def test_bracket_lists_every_level_below_the_threshold(F, d, a, u):
    # Independently of bracket: the first 100 mixed levels and scipy's zeros of
    # every order to 64.  Thresholds run from just below lambda_ND,1 to where
    # the order cap or the 100 levels stop bracket.
    p = WaveguideParams(F=F, d=d, a=a)
    nd = [lvl.lam for lvl in transverse.levels(p, ND, 100)]
    j64 = _scipy_zeros(specfun.MAX_BESSEL_ORDER)[0]
    top = min(nd[0] + (0.99 * j64 / a) ** 2, (99.0 * math.pi / d) ** 2)
    below = nd[0] + u * (top - nd[0])
    got = {(e.n, e.m, e.k): e for e in bracket.dirichlet_disc_levels(p, below)}
    want = {(n, m, k): (x / a) ** 2 + lam
            for n, lam in enumerate(nd, start=1)
            for m in range(specfun.MAX_BESSEL_ORDER + 1)
            for k, x in enumerate(_scipy_zeros(m), start=1)
            if (x / a) ** 2 + lam < below}
    assert set(got) == set(want)
    for key, e in got.items():
        assert e.lam == pytest.approx(want[key], rel=1e-9)
        assert e.multiplicity == (1 if key[1] == 0 else 2)


@PROPERTY
@given(u=CERTIFY_FIELDS, d=WIDTHS, r=CERTIFY_ASPECTS)
@example(u=1e-9, d=1.0, r=3e-3)
@example(u=1e8, d=4.0, r=30.0)
@example(u=0.0, d=0.5, r=30.0)
def test_certificate_is_negative_and_matches_its_decomposition(u, d, r):
    cert = certify.certify(WaveguideParams(F=u / d ** 3, d=d, a=r * d))
    assert cert.valid
    spec = cert.spec
    decomposition = cert.coeff_A * spec.tau + cert.coeff_B * spec.eps ** 2 - cert.coeff_C * spec.eps
    assert abs(cert.q_value - decomposition) <= 1e-6 * abs(cert.q_value)


@PROPERTY
@given(u=st.floats(8.0, 200.0).map(lambda e: 10.0 ** e), d=WIDTHS)
@example(u=1e8, d=0.5)
@example(u=1e200, d=4.0)
def test_strong_field_wall_values_are_the_airy_limits(u, d):
    # For F d^3 >= 1e8 the far wall decouples up to e^-(4/3)(F d^3)^(1/2):
    # chi_1'(0) = F^(1/2) (DD) and chi_1(0) = (F^(1/3)/|a'_1|)^(1/2) (ND).
    F = u / d ** 3
    p = WaveguideParams(F=F, d=d)
    dd, nd = (transverse.levels(p, bc, 1)[0] for bc in (DD, ND))
    aip_1 = float(-mp.airyaizero(1, derivative=1))
    assert abs(transverse.chi_prime(dd, p, 0.0) / math.sqrt(F) - 1.0) <= 1e-13
    assert abs(transverse.chi(nd, p, 0.0) / math.sqrt(F ** (1.0 / 3.0) / aip_1) - 1.0) <= 1e-13


@PROPERTY
@given(u=st.floats(8.0, 30.0).map(lambda e: 10.0 ** e), d=WIDTHS,
       a=st.floats(math.log(0.1), math.log(10.0)).map(math.exp))
@example(u=1e18, d=1.0, a=1.0)
def test_strong_field_certificate_has_the_airy_limit_slope(u, d, a):
    # For F d^3 >= 1e8, chi_1'(0) = F^(1/2) up to e^-(2/3)(F d^3)^(1/2): the
    # boundary term C is pi a^2 F^(1/2), independent of the code.
    F = u / d ** 3
    cert = certify.certify(WaveguideParams(F=F, d=d, a=a))
    assert cert.valid
    limit = math.pi * a * a * math.sqrt(F)
    assert abs(cert.coeff_C / limit - 1.0) <= 1e-13


@PROPERTY
@given(data=st.data())
def test_bessel_zero_is_scipys_in_any_access_order(data):
    # Every zero is read from the shipped table, k <= 100, and is scipy's
    # whatever the order of the reads.
    orders = data.draw(st.lists(st.integers(0, specfun.MAX_BESSEL_ORDER),
                                min_size=1, max_size=3, unique=True))
    reads = data.draw(st.lists(st.tuples(st.sampled_from(orders),
                                         st.integers(1, specfun.MAX_BESSEL_ZERO_INDEX)),
                               min_size=1, max_size=12))
    for m, k in reads:
        assert specfun.bessel_zero(m, k) == float(jn_zeros(m, k)[k - 1])


def _at_table_piece_edges(test):
    # Every integer of [-8, 8] bounds a table piece; x = 2 also switches from
    # raw to scaled pieces, and the doubles beside +-8 take the far pieces.
    cut = specfun._CUT
    for b in range(-cut, cut + 1):
        for x in (math.nextafter(b, -math.inf), float(b), math.nextafter(b, math.inf)):
            test = example(x=x)(test)
    return test


@PROPERTY
@_at_table_piece_edges
@given(x=st.one_of(st.floats(-8.5, 8.5), st.floats(8.0, 400.0, exclude_min=True),
                   st.floats(-400.0, -8.0, exclude_max=True)))
def test_airy_grid_matches_mpmath(x):
    # Relative to the scaled value for x >= 0, to the envelope sqrt(Ai^2 + Bi^2)
    # (sqrt(Ai'^2 + Bi'^2) for the derivatives) for x < 0.
    got = [float(v[0]) for v in specfun.airy_grid(np.array([x]))[:4]]
    with mp.workdps(40):
        want = [mp.airyai(x), mp.airyai(x, derivative=1), mp.airybi(x), mp.airybi(x, derivative=1)]
        if x >= 0.0:
            e = mp.exp(2 * mp.mpf(x) ** mp.mpf(1.5) / 3)
            want = [want[0] * e, want[1] * e, want[2] / e, want[3] / e]
            scales = [abs(w) for w in want]
        else:
            env = mp.sqrt(want[0] ** 2 + want[2] ** 2)
            env_prime = mp.sqrt(want[1] ** 2 + want[3] ** 2)
            scales = [env, env_prime, env, env_prime]
        errors = [float(abs(g - w) / s) for g, w, s in zip(got, want, scales)]
    assert max(errors) <= 2e-15


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


_CLI_WIDTHS = st.sampled_from(["1", repr(math.pi)])
_CLI_FIELDS = st.just(0.0) | _log_uniform(1e-2, 1.0)
_FORMATS = st.sampled_from(["csv", "json"])


@st.composite
def _cli_argv(draw, command):
    """One invocation of ``command``, as the argv strings a user would type."""
    argv = [command, "--d", draw(_CLI_WIDTHS), "--format", draw(_FORMATS)]
    if command == "levels":
        argv += ["--F", repr(draw(st.just(0.0) | _log_uniform(1e-2, 1e4))),
                 "--bc", draw(st.sampled_from(["dirichlet", "neumann"])),
                 "--count", str(draw(st.integers(1, 20)))]
    elif command == "bracket":
        argv += ["--F", "0", "--a", repr(draw(_log_uniform(0.5, 100.0)))]
    elif command == "threshold":
        argv += ["--F", repr(draw(_CLI_FIELDS)), "--i", str(draw(st.integers(1, 30)))]
    elif command == "certify":
        argv += ["--F", repr(draw(_CLI_FIELDS)), "--a", repr(draw(_log_uniform(0.05, 20.0)))]
    else:  # figure
        a_min = draw(st.floats(0.5, 2.0))
        argv += ["--F", repr(draw(_CLI_FIELDS)), "--a-min", repr(a_min),
                 "--a-max", repr(a_min + draw(st.floats(0.5, 10.0))),
                 "--steps", str(draw(st.integers(2, 50))),
                 "--i-max", str(draw(st.integers(1, 3)))]
    return argv


def _cli_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", ["levels", "bracket", "threshold", "certify", "figure"])
@PROPERTY
@given(data=st.data())
def test_cli_output_does_not_depend_on_cache_state(command, data):
    # A run with cold eigenvalue caches and one with warm caches print the
    # same bytes and exit alike.
    argv = data.draw(_cli_argv(command))
    transverse.ground_level.cache_clear()
    transverse._scale.cache_clear()
    assert _cli_main(argv) == _cli_main(argv)
