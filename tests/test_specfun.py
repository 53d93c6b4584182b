"""Special-function kernel tests against independent series oracles."""

import math
import os
import subprocess
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
import scipy.special
from scipy.special import jv

from starklayer import specfun, transverse
from starklayer.transverse import WaveguideParams

import oracles

# Frozen from the Gamma-function initial constants (verified by the series
# oracle at x = 0).
AI_AT_0 = 0.3550280538878172
BI_AT_0 = 0.6149266274460007
FIRST_AI_ZERO = 2.338107410459767
J01 = 2.404825557695773
J11 = 3.831705970207512


def _airy_at(x):
    """``airy_grid`` at one point, as floats ``(ai, aip, bi, bip, scale_exp)``."""
    return tuple(float(v[0]) for v in specfun.airy_grid(np.array([x])))


def test_airy_at_zero_frozen():
    ai, _, bi, _, scale = _airy_at(0.0)
    assert ai == pytest.approx(AI_AT_0, rel=1e-14)
    assert bi == pytest.approx(BI_AT_0, rel=1e-14)
    assert scale == 0.0


def test_airy_matches_series_oracle_both_sides_of_seam():
    for x in [-8.4, -8.0, -7.6, -5.0, -2.0, -0.3, 0.0, 0.7, 3.0, 6.5, 7.9, 8.0, 8.3, 9.5]:
        got = _airy_at(x)[:4]
        ai, aip, bi, bip = oracles.airy_series(x, dps=60)
        if x > 0:
            e = mp.e ** (mp.mpf(2) / 3 * mp.mpf(x) ** mp.mpf(1.5))
            ai, aip, bi, bip = ai * e, aip * e, bi / e, bip / e
        for value, want in zip(got, (ai, aip, bi, bip)):
            assert value == pytest.approx(float(want), rel=1e-11)


def test_airy_negative_axis_unscaled_and_bounded():
    x = np.linspace(-30.0, 0.0, 500)
    ai, aip, bi, bip, scale = specfun.airy_grid(x)
    assert np.all(scale == 0.0)
    assert np.abs(ai).max() < 1.0 and np.abs(bi).max() < 1.0


def test_airy_large_arguments_stay_representable():
    for x in [50.0, 1e3, 1e4]:
        ai, aip, bi, bip, scale = _airy_at(x)
        assert all(map(math.isfinite, (ai, aip, bi, bip)))
        assert scale == pytest.approx(2.0 / 3.0 * x ** 1.5, rel=1e-14)
        # scaled product forms keep the Wronskian exact
        assert abs(math.pi * (ai * bip - aip * bi) - 1.0) < 1e-12


def test_wronskian_identity_dense_grid():
    x = np.linspace(-20.0, 30.0, 10000)
    ai, aip, bi, bip, _ = specfun.airy_grid(x)
    resid = np.abs(np.pi * (ai * bip - aip * bi) - 1.0)
    assert resid.max() <= 1e-10


def test_airy_equation_residual_by_central_differences():
    h = 1e-3
    for x in np.linspace(-3.0, 3.0, 13):
        ai, _, _, _, scale = specfun.airy_grid(np.array([x - h, x, x + h]))
        raw = ai * np.exp(-scale)  # undo the positive-axis scaling
        second = (raw[0] - 2.0 * raw[1] + raw[2]) / h ** 2
        assert second == pytest.approx(x * float(raw[1]), abs=5e-5)


def test_first_ai_zero_against_series_bisection():
    root = float(oracles.first_airy_zero(dps=50))
    assert root == pytest.approx(FIRST_AI_ZERO, abs=1e-13)
    assert specfun.airy_ai_zero(1) == pytest.approx(root, abs=1e-10)
    assert abs(_airy_at(-specfun.airy_ai_zero(1))[0]) <= 1e-10


def test_airy_prime_zero_is_extremum_of_ai():
    t = specfun.airy_aip_zero(1)
    assert abs(_airy_at(-t)[1]) <= 1e-10
    assert 1.0 < t < 1.1  # classical value 1.01879...


def test_airy_zeros_match_mpmath_first_hundred():
    for n in range(1, 101):
        assert specfun.airy_ai_zero(n) == pytest.approx(
            -float(mp.airyaizero(n)), rel=2e-12, abs=0.0)
        assert specfun.airy_aip_zero(n) == pytest.approx(
            -float(mp.airyaizero(n, derivative=1)), rel=2e-12, abs=0.0)
    for zero in (specfun.airy_ai_zero, specfun.airy_aip_zero):
        with pytest.raises(ValueError):
            zero(0)


def test_airy_zeros_come_from_one_table(monkeypatch):
    # levels --method asymptotic-strong --count 100 called ai_zeros(n) for
    # every n; each zero is still the last of ai_zeros(n), bit for bit.
    calls = []
    kernel = scipy.special.ai_zeros
    monkeypatch.setattr(scipy.special, "ai_zeros", lambda n: calls.append(n) or kernel(n))
    specfun._ai_zero_table.cache_clear()
    try:
        for n in range(1, 101):
            assert specfun.airy_ai_zero(n) == -kernel(n)[0][-1]
            assert specfun.airy_aip_zero(n) == -kernel(n)[1][-1]
        assert calls == [100]
        assert specfun.airy_ai_zero(150) == -kernel(150)[0][-1]
        assert calls == [100, 150]
    finally:
        specfun._ai_zero_table.cache_clear()


def _fresh_python(probe, *paths):
    """Stdout of ``probe`` in a new interpreter that imports this checkout and ``paths``."""
    src = os.path.dirname(os.path.dirname(specfun.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, *paths, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_shipped_airy_table_is_the_oracles():
    cut = specfun._CUT
    shipped = specfun._shipped("_airy_cheb.npy")
    assert shipped.shape == (2 * cut + 2, 17, 4)
    assert shipped.dtype == np.float64
    assert np.array_equal(shipped, oracles.airy_cheb_table(cut, specfun._CHEB_SCALED_FROM))


def test_airy_table_read_on_first_table_call():
    probe = ("from starklayer import specfun\n"
             "print(specfun._shipped.cache_info().currsize)\n")
    assert _fresh_python(probe) == "0\n"
    for x in (-9.0, 0.5, 9.0):   # far left piece, a unit piece, far right piece
        specfun._shipped.cache_clear()
        specfun.airy_grid(np.array([x]))
        specfun.airy_grid(np.array([x]))
        info = specfun._shipped.cache_info()
        assert (info.misses, info.currsize) == (1, 1)


def test_airy_grid_peak_memory_at_the_call_point_cap():
    # The recurrence gathers one degree of coefficients at a time; gathering
    # the whole (n, 17, 4) block at once would exceed this bound.
    specfun.airy_grid(np.zeros(1))
    for half_width in (8.0, 400.0):
        x = np.linspace(-half_width, half_width, specfun.MAX_CALL_POINTS)
        tracemalloc.start()
        try:
            specfun.airy_grid(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6


def test_double_double_module_is_gone():
    probe = ("try:\n    import starklayer._dd\n"
             "except ModuleNotFoundError:\n    print('gone')\n")
    assert _fresh_python(probe) == "gone\n"


def test_uncalled_entry_points_are_gone():
    public = ("bessel_j", "emit_figure", "chi1_second_derivative", "airy", "AiryPair",
              "BesselZeroTable")
    per_module = {"specfun": ("_airy_asym_pos", "_airy_asym_neg", "_AIRY_U"),
                  "certify": ("bump", "bump_prime", "cutoff_profile", "cutoff_profile_prime",
                              "cutoff_dilated", "cutoff_dilated_prime", "_smoothstep",
                              "_smoothstep_prime", "np")}
    probe = ("import starklayer\nfrom starklayer import certify, cli, specfun, transverse\n"
             f"public, per_module = {public!r}, {per_module!r}\n"
             "print([(m.__name__, n) for m in (starklayer, specfun, cli, transverse, certify)\n"
             "       for n in public + per_module.get(m.__name__.rpartition('.')[2], ())\n"
             "       if hasattr(m, n)])\n")
    assert _fresh_python(probe) == "[]\n"


def test_benchmark_tracer_installs():
    # The benchmark's tracer wraps its functions by name and reads the zero
    # table and the order cap; a deleted name would end a traced run.
    perfbench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench")
    probe = ("import spans\nspans.install(spans.Tracer())\nfrom starklayer import specfun\n"
             "print(specfun.MAX_BESSEL_ORDER, callable(specfun._DEFAULT_ZEROS.get))\n")
    assert _fresh_python(probe, perfbench) == "64 True\n"


def test_airy_rejects_nonfinite():
    with pytest.raises(ValueError):
        specfun.airy_grid(np.array([math.nan]))


# The next four tests pin scipy's J_m, which the mode-matching solve of the
# window (ROADMAP item 9) is to call directly, against the series oracle and
# mpmath.

def test_bessel_trivial_values():
    assert jv(0, 0.0) == 1.0
    assert jv(1, 0.0) == 0.0
    assert jv(7, 0.0) == 0.0


@pytest.mark.parametrize("m", [0, 1, 2, 5, 17, 40, 64])
def test_bessel_matches_series_oracle(m):
    for x in [0.3, 1.0, 5.0, 12.0, 16.5, 0.5 * m, m - 1.0, m + 5.0, 55.0]:
        if x <= 0.0 or x > 60.0:
            continue
        got = jv(m, x)
        want = float(oracles.bessel_series(m, x, dps=80))
        scale = max(abs(want), math.sqrt(2.0 / (math.pi * x)))
        assert abs(got - want) <= 1e-11 * scale


@pytest.mark.parametrize("m", [0, 1, 8, 64])
def test_bessel_large_argument_against_mpmath(m):
    for x in [80.0, 300.0, 1000.0]:
        got = jv(m, x)
        want = float(mp.besselj(m, x))
        scale = max(abs(want), math.sqrt(2.0 / (math.pi * x)))
        assert abs(got - want) <= 1e-11 * scale


def test_bessel_recurrence_identity():
    for m in [1, 2, 3, 6, 10, 30]:
        for x in np.linspace(0.5, 100.0, 41):
            jm = jv(m, x)
            lhs = jv(m - 1, x) + jv(m + 1, x)
            rhs = (2.0 * m / x) * jm
            scale = abs(lhs) + abs(rhs) + math.sqrt(2.0 / (math.pi * x))
            assert abs(lhs - rhs) <= 1e-8 * scale


def test_bessel_zero_frozen_and_oracle():
    assert specfun.bessel_zero(0, 1) == pytest.approx(J01, abs=1e-10)
    assert specfun.bessel_zero(1, 1) == pytest.approx(J11, abs=1e-10)
    live0 = float(oracles.bessel_zero_oracle(0, (2.0, 3.0)))
    live1 = float(oracles.bessel_zero_oracle(1, (3.2, 4.5)))
    assert specfun.bessel_zero(0, 1) == pytest.approx(live0, abs=1e-10)
    assert specfun.bessel_zero(1, 1) == pytest.approx(live1, abs=1e-10)


def test_bessel_zero_defining_property():
    for m in (0, 1, 4, 11, 40):
        for k in (1, 2, 7):
            x = specfun.bessel_zero(m, k)
            assert abs(oracles.bessel_series(m, x)) <= 1e-10


def test_bessel_zero_interlacing():
    for m in range(11):
        for k in range(1, 11):
            x_mk = specfun.bessel_zero(m, k)
            assert x_mk < specfun.bessel_zero(m + 1, k)
            assert x_mk < specfun.bessel_zero(m, k + 1)
            assert specfun.bessel_zero(m + 1, k) < specfun.bessel_zero(m, k + 1)


def test_mcmahon_asymptotic_consistency():
    for m in (0, 1, 3):
        gaps = []
        for k in range(5, 16):
            beta = (k + 0.5 * m - 0.25) * math.pi
            gaps.append(abs(specfun.bessel_zero(m, k) - beta))
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert max(gaps) < 0.5


def test_bessel_order_and_index_caps():
    with pytest.raises(specfun.UnsupportedOrderError):
        specfun.bessel_zero(65, 1)
    with pytest.raises(specfun.UnsupportedOrderError):
        specfun.bessel_zero(0, 1001)


def test_deep_zeros_call_jn_zeros_once_per_order(monkeypatch):
    # Indices up to 100 are read from the shipped table; deeper ones from one
    # jn_zeros(m, 1000) per order, whatever the order of the reads.
    real = scipy.special.jn_zeros
    calls = []

    def counting(m, n):
        calls.append((m, n))
        return real(m, n)

    monkeypatch.setattr(scipy.special, "jn_zeros", counting)
    specfun._deep_zeros.cache_clear()
    shallow = [specfun.bessel_zero(m, k) for m in (0, 3, 64) for k in (1, 57, 100)]
    assert calls == []
    assert shallow == [float(real(m, k)[-1]) for m in (0, 3, 64) for k in (1, 57, 100)]
    reads = [(3, 150), (5, 1000), (3, 101), (5, 200), (3, 1000), (3, 2)]
    deep = [specfun.bessel_zero(m, k) for m, k in reads]
    assert calls == [(3, 1000), (5, 1000)]
    assert deep == [float(real(m, k)[-1]) for m, k in reads]


def test_tracer_zero_reader_never_raises():
    # The benchmark tracer calls _DEFAULT_ZEROS.get(m, k) before each
    # bessel_zero call, outside its error handling.
    get = specfun._DEFAULT_ZEROS.get
    assert get(0, 1) == specfun.bessel_zero(0, 1)
    assert get(64, 100) == specfun.bessel_zero(64, 100)
    for m, k in ((-1, 1), (0, 0), (0, 101), (65, 1), (10 ** 30, -(10 ** 30))):
        assert get(m, k) is None


def test_shipped_zeros_are_scipys():
    shipped = specfun._shipped("_jn_zeros.npy")
    assert shipped.shape == (specfun.MAX_BESSEL_ORDER + 1, 100)
    assert shipped.dtype == np.float64
    assert np.array_equal(shipped, [scipy.special.jn_zeros(m, 100)
                                    for m in range(specfun.MAX_BESSEL_ORDER + 1)])


def test_integrate_exact_cases():
    assert specfun.integrate(np.ones_like, 0.0, 1.0, 1e-12) == pytest.approx(1.0, abs=1e-14)
    d = 1.7
    assert specfun.integrate(lambda z: z, 0.0, d, 1e-12) == pytest.approx(d * d / 2.0, abs=1e-13)
    assert specfun.integrate(np.sin, 0.0, math.pi, 1e-10) == pytest.approx(2.0, abs=5e-10)


def test_integrate_breakpoints_handle_kinks():
    f = lambda x: abs(x - 0.3)  # noqa: E731
    exact = 0.3 ** 2 / 2 + 0.7 ** 2 / 2
    got = specfun.integrate(f, 0.0, 1.0, 1e-12, breakpoints=(0.3,))
    assert got == pytest.approx(exact, abs=1e-12)


def test_integrate_failure_carries_best_estimate():
    f = lambda t: np.where(t > 0, t, np.inf) ** -0.5  # noqa: E731
    with pytest.raises(specfun.QuadratureError) as err:
        specfun.integrate(f, 0.0, 1.0, 1e-13)
    assert math.isfinite(err.value.best_estimate)


def test_integrate_failure_estimates_the_whole_integral():
    # int_0^1 t^-1/2 dt = 2: the estimate covers every interval, closed or open.
    f = lambda t: np.where(t > 0, t, np.inf) ** -0.5  # noqa: E731
    with pytest.raises(specfun.QuadratureError) as err:
        specfun.integrate(f, 0.0, 1.0, 1e-13)
    assert err.value.best_estimate == pytest.approx(2.0, abs=1e-3)


def test_integrate_stops_at_the_call_point_cap():
    sizes = []

    def square_wave(t):
        sizes.append(t.size)
        return np.where(np.sin(1e9 * t) > 0.0, 1.0, -1.0)

    with pytest.raises(specfun.QuadratureError) as err:
        specfun.integrate(square_wave, 0.0, 1.0, 1e-13)
    assert math.isfinite(err.value.best_estimate)
    # One call per depth, none past the cap; the cap, not the depth limit,
    # ended it: the last depth was too wide to split once more.
    assert max(sizes) <= specfun.MAX_CALL_POINTS
    assert len(sizes) < specfun._QUAD_MAX_DEPTH
    assert sizes[-1] > specfun.MAX_CALL_POINTS // 2


def _reference_integrate(f, lo, hi, tol):
    """The depth-first recursive Simpson that integrate replaced, one abscissa per ``f`` call.

    ``f`` gets one-element arrays: numpy's vectorised ``pow`` can round the
    last bit differently from the scalar one, so scalars would compare the
    integrands rather than the quadrature.
    """
    def point(x):
        return float(f(np.array([x]))[0])

    def simpson(fa, fm, fb, h):
        return h * (fa + 4.0 * fm + fb) / 6.0

    def adaptive(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        flm, frm = point(0.5 * (a + m)), point(0.5 * (m + b))
        left = simpson(fa, flm, fm, m - a)
        right = simpson(fm, frm, fb, b - m)
        delta = left + right - whole
        if abs(delta) <= 15.0 * tol:
            return left + right + delta / 15.0
        assert depth < specfun._QUAD_MAX_DEPTH
        return (adaptive(a, m, fa, flm, fm, left, 0.5 * tol, depth + 1)
                + adaptive(m, b, fm, frm, fb, right, 0.5 * tol, depth + 1))

    fa, fm, fb = point(lo), point(0.5 * (lo + hi)), point(hi)
    return 0.0 + adaptive(lo, hi, fa, fm, fb, simpson(fa, fm, fb, hi - lo), tol, 0)


@pytest.mark.parametrize("F, d, a", [(0.01, 1.0, 20.0), (100.0, 1.0, 0.05), (0.0, 1.0, 1.0),
                                     (0.1, 2.0, 0.5), (1e-3, math.pi, 10.0), (3.0, 0.5, 2.0),
                                     (0.014150474976540563, 1.0, 2.7666063388435504)])
def test_integrate_matches_recursive_reference_on_certify_integrands(F, d, a):
    # The integrands the quadrature certificate used, at its tolerances: the
    # bump blocks, the cutoff gradient, chi_1 and (F z - lam) chi_1.
    # The certificate then used the mollifier exp(-1/(1-u^2)), u = (2r-a)/a,
    # and the quintic smoothstep cutoff; they are kept here because, unlike
    # its polynomial pieces today, Simpson does not integrate them exactly.
    p = WaveguideParams(F=F, d=d, a=a)
    level = transverse.ground_level(F, d, transverse.BoundaryType.DIRICHLET_DIRICHLET)
    b, scale = 2.0 * a, max(a * a, 1e-8)

    def mollifier(r):
        """(g, g') on (0, a), both 0 outside."""
        u = (2.0 * np.asarray(r, dtype=np.float64) - a) / a
        inside = np.abs(u) < 1.0 - 1e-14
        u = np.where(inside, u, 0.0)
        one = 1.0 - u ** 2
        g = np.where(inside, np.exp(-1.0 / one), 0.0)
        return g, g * (-2.0 * u / one ** 2) * (2.0 / a)

    def mollifier_sq_prime(r):
        g, dg = mollifier(r)
        return 2.0 * g * dg

    def smoothstep_prime(s):
        t = np.asarray(s, dtype=np.float64) - b
        on = (t > 0.0) & (t < 1.0)
        t = np.where(on, t, 0.0)
        return np.where(on, -30.0 * t ** 2 * (1.0 - t) ** 2, 0.0)

    cases = [
        (lambda r: mollifier(r)[0] ** 2 * r, 0.0, a, 1e-11 * scale),
        (lambda r: mollifier_sq_prime(r) ** 2 * r, 0.0, a,
         1e-11 * max(1.0, scale)),
        (lambda r: mollifier(r)[0] ** 4 * r, 0.0, a, 1e-11 * scale),
        (lambda s: smoothstep_prime(s) ** 2, b, b + 1.0, 1e-11),
        (lambda z: transverse.chi(level, p, z), 0.0, d, 1e-11 * max(1.0, d)),
        (lambda z: (F * z - level.lam) * transverse.chi(level, p, z), 0.0, d,
         1e-11 * max(1.0, abs(level.lam) * d)),
    ]
    for f, lo, hi, tol in cases:
        value = specfun.integrate(f, lo, hi, tol)
        assert type(value) is float
        assert value == _reference_integrate(f, lo, hi, tol)


def test_integrate_validates_input():
    with pytest.raises(ValueError):
        specfun.integrate(math.sin, 1.0, 0.0, 1e-10)
    with pytest.raises(ValueError):
        specfun.integrate(math.sin, 0.0, 1.0, 0.0)
