"""Bracket levels, eigenvalue counting, thresholds, and figure-curve data."""

import io
import json
import math

import numpy as np
import pytest
from scipy.special import jn_zeros

from starklayer import bracket, cli, specfun, transverse
from starklayer.transverse import BoundaryType, WaveguideParams, levels

PI = math.pi

# Frozen from the series-bisection oracle (see oracles.py):
#   j01 = 2.4048255576957727686, a*_1(F=0, d=pi) = j01 / sqrt(3/4)
SMALLEST_DISC_LEVEL_A10 = 0.30783185962946785   # (j01/10)^2 + 1/4
A_STAR_1 = 2.7768533661794926


def test_window_field_free_closed_forms():
    w = bracket.window(WaveguideParams(F=0.0, d=PI))
    assert (w.lower, w.upper) == pytest.approx((0.25, 1.0), rel=1e-14)
    w1 = bracket.window(WaveguideParams(F=0.0, d=1.0))
    assert (w1.lower, w1.upper) == pytest.approx((PI ** 2 / 4.0, PI ** 2), rel=1e-14)


def test_window_is_always_open():
    for F in (0.0, 0.3, 2.0, 40.0):
        for d in (0.7, 1.0, PI):
            w = bracket.window(WaveguideParams(F=F, d=d))
            assert w.lower < w.upper


def test_window_monotone_in_field():
    lowers, uppers = [], []
    for F in (0.0, 0.5, 2.0, 10.0, 100.0):
        w = bracket.window(WaveguideParams(F=F, d=1.0))
        lowers.append(w.lower)
        uppers.append(w.upper)
    assert all(a < b for a, b in zip(lowers, lowers[1:]))
    assert all(a < b for a, b in zip(uppers, uppers[1:]))


def _capped(ests, n_max, m_max, k_max):
    return [e for e in ests if e.n <= n_max and e.m <= m_max and e.k <= k_max]


def test_disc_levels_large_window_has_bound_state():
    p = WaveguideParams(F=0.0, d=PI, a=10.0)
    win = bracket.window(p)
    ests = _capped(bracket.dirichlet_disc_levels(p, win.upper), 3, 20, 50)
    assert ests
    assert ests[0].lam == pytest.approx(SMALLEST_DISC_LEVEL_A10, rel=1e-12)
    assert ests[0].n == 1 and ests[0].m == 0 and ests[0].k == 1
    assert [e.lam for e in ests] == sorted(e.lam for e in ests)
    assert all(e.lam > win.lower for e in ests)


def test_disc_levels_small_window_empty():
    p = WaveguideParams(F=0.0, d=PI, a=1.0)
    win = bracket.window(p)
    assert _capped(bracket.dirichlet_disc_levels(p, win.upper), 3, 20, 50) == []


def test_disc_levels_zero_radius_degenerate():
    p = WaveguideParams(F=0.0, d=PI, a=0.0)
    assert _capped(bracket.dirichlet_disc_levels(p, 1.0), 3, 20, 50) == []


def test_disc_levels_multiplicity():
    p = WaveguideParams(F=0.0, d=PI, a=10.0)
    ests = _capped(bracket.dirichlet_disc_levels(p, 1.0), 3, 20, 50)
    for e in ests:
        assert e.multiplicity == (1 if e.m == 0 else 2)
    assert any(e.m >= 1 for e in ests)


def test_disc_levels_monotone_in_indices():
    p = WaveguideParams(F=0.0, d=PI, a=12.0)
    ests = _capped(bracket.dirichlet_disc_levels(p, 1.0), 2, 20, 50)
    by_mk = {(e.m, e.k): e.lam for e in ests if e.n == 1}
    for (m, k), lam in by_mk.items():
        if (m, k + 1) in by_mk:
            assert lam < by_mk[(m, k + 1)]
        if (m + 1, k) in by_mk:
            assert lam < by_mk[(m + 1, k)]


@pytest.mark.parametrize("below", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("a", [0.0, 1.0])
def test_disc_levels_refuse_a_non_finite_threshold(a, below):
    with pytest.raises(ValueError, match="finite"):
        bracket.dirichlet_disc_levels(WaveguideParams(F=0.0, d=1.0, a=a), below)


def _bracket_cli(capsys, *flags):
    code = cli.main(["bracket", "--F", "0", "--d", "1", *flags])
    return code, capsys.readouterr()


def test_bracket_lists_every_transverse_level_below_the_threshold(capsys):
    # lambda_ND,n = (n - 1/2)^2 pi^2 at F = 0, d = 1: levels n = 1..8 lie below
    # 600 (lambda_ND,8 = 555.2, lambda_ND,9 = 713.1).
    code, captured = _bracket_cli(capsys, "--a", "1", "--below", "600")
    assert code == 0
    rows = [line.split(",") for line in captured.out.splitlines()[1:]]
    by_n = {n: sum(1 for row in rows if row[0] == str(n)) for n in range(1, 10)}
    assert (by_n[7], by_n[8], by_n[9]) == (22, 5, 0)
    for n, m, k, lam, _ in rows:
        x = jn_zeros(int(m), int(k))[-1]
        assert float(lam) == pytest.approx(x ** 2 + ((int(n) - 0.5) * PI) ** 2, rel=1e-13)
        assert float(lam) < 600.0


def test_bracket_refuses_a_threshold_past_the_order_cap(capsys):
    # Levels of orders 65..90 lie below 100 at a = 10 (j_{90,1} < 10 sqrt(100 - pi^2/4)).
    code, captured = _bracket_cli(capsys, "--a", "10", "--below", "100")
    assert code == 1
    assert captured.out == ""
    report = json.loads(captured.err)
    assert report["error"] == "UnsupportedOrderError"
    assert report["message"] == "window radius a=10.0 requires angular orders beyond 64"


def test_bracket_refuses_a_threshold_past_100_transverse_levels(capsys):
    code, captured = _bracket_cli(capsys, "--a", "1", "--below", "1e6")
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: threshold below=1000000.0 needs 319 transverse levels; "
                            "at most 100 are solved\n")


def test_count_vanishing_window():
    assert bracket.count_certified(WaveguideParams(F=0.0, d=PI, a=1e-6)) == 0
    assert bracket.count_certified(WaveguideParams(F=0.0, d=PI, a=0.0)) == 0


def test_count_large_window_at_least_three():
    assert bracket.count_certified(WaveguideParams(F=0.0, d=PI, a=10.0)) >= 3


def test_count_nondecreasing_in_radius():
    counts = [bracket.count_certified(WaveguideParams(F=0.0, d=PI, a=a))
              for a in (0.5, 1.0, 3.0, 5.0, 8.0, 10.0, 12.0)]
    assert all(x <= y for x, y in zip(counts, counts[1:]))


@pytest.mark.parametrize("a", [0.5, 2.0, 10.0, 40.0])
def test_count_is_sum_of_cli_bracket_multiplicities(a):
    buf = io.StringIO()
    argv = ["bracket", "--F", "0", "--d", repr(PI), "--a", repr(a), "--format", "json"]
    assert cli.run(cli.config_from_args(cli._build_parser().parse_args(argv)), out=buf) == 0
    estimates = json.loads(buf.getvalue())["estimates"]
    count = bracket.count_certified(WaveguideParams(F=0.0, d=PI, a=a))
    assert count == sum(e["multiplicity"] for e in estimates)


def test_count_refuses_radius_past_the_order_cap():
    with pytest.raises(specfun.UnsupportedOrderError):
        bracket.count_certified(WaveguideParams(F=0.0, d=PI, a=100.0))


def test_count_sweep_solves_each_ground_level_once(monkeypatch):
    # The Neumann-Dirichlet ground level of every radius is the window's lower
    # edge, so a sweep over a at fixed (F, d) reuses the cached solve.
    transverse.ground_level.cache_clear()
    calls = []

    def counting(solve):
        def counted(params, bc, count):
            calls.append(bc)
            return solve(params, bc, count)
        return counted

    monkeypatch.setattr(transverse, "levels", counting(transverse.levels))
    monkeypatch.setattr(bracket, "levels", counting(bracket.levels))
    for a in (0.5, 1.0, 2.0, 4.0):
        bracket.count_certified(WaveguideParams(F=10.0, d=3.0, a=a))
    assert len(calls) == 2


def test_sorted_zeros_merge_all_orders():
    zs = bracket.sorted_bessel_zeros(6)
    assert zs == sorted(zs)
    assert zs[0] == pytest.approx(specfun.bessel_zero(0, 1), abs=1e-14)
    assert zs[1] == pytest.approx(specfun.bessel_zero(1, 1), abs=1e-14)
    assert zs[2] == pytest.approx(specfun.bessel_zero(2, 1), abs=1e-14)
    assert zs[3] == pytest.approx(specfun.bessel_zero(0, 2), abs=1e-14)


def test_sorted_zeros_match_independent_merge():
    merged = sorted((float(z), m) for m in range(30) for z in jn_zeros(m, 50))
    assert bracket.sorted_bessel_zeros(50) == [z for z, _ in merged[:50]]


def test_sorted_zeros_fail_only_past_the_order_cap():
    # Order 64 first enters the merge at its first zero; one more zero needs order 65.
    cap_zero = specfun.bessel_zero(specfun.MAX_BESSEL_ORDER, 1)
    n_below = sum(1 for m in range(specfun.MAX_BESSEL_ORDER + 1)
                  for k in range(1, 40) if specfun.bessel_zero(m, k) <= cap_zero)
    assert bracket.sorted_bessel_zeros(n_below)[-1] == cap_zero
    with pytest.raises(specfun.UnsupportedOrderError):
        bracket.sorted_bessel_zeros(n_below + 1)


@pytest.mark.parametrize("d", [1.0, PI])
@pytest.mark.parametrize("F", [0.0, 1e-2, 1.0, 1e2, 1e3])
def test_nd_dd_interlacing(F, d):
    p = WaveguideParams(F=F, d=d)
    nd = levels(p, BoundaryType.NEUMANN_DIRICHLET, 2)
    dd = levels(p, BoundaryType.DIRICHLET_DIRICHLET, 1)
    assert nd[0].lam < dd[0].lam < nd[1].lam


def test_sufficient_radius_frozen_value():
    p = WaveguideParams(F=0.0, d=PI)
    assert bracket.sufficient_radius(p, 1) == pytest.approx(A_STAR_1, abs=1e-10)
    # second threshold uses the first zero of J_1
    expected2 = specfun.bessel_zero(1, 1) / math.sqrt(0.75)
    assert bracket.sufficient_radius(p, 2) == pytest.approx(expected2, rel=1e-13)


def test_sufficient_radius_increasing_in_index():
    p = WaveguideParams(F=0.0, d=PI)
    vals = [bracket.sufficient_radius(p, i) for i in (1, 2, 3, 4)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_sufficient_radius_finite_across_fields_and_trend():
    vals = []
    for F in (0.01, 1.0, 100.0):
        v = bracket.sufficient_radius(WaveguideParams(F=F, d=1.0), 1)
        assert math.isfinite(v) and v > 0.0
        vals.append(v)
    # the window gap widens with F, so the threshold radius narrows
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_figure_curves_structure_and_monotonicity():
    p = WaveguideParams(F=0.0, d=PI)
    fig = bracket.figure_curves(p, 0.5, 10.0, 40, 3)
    assert fig.header == ["a", "curve1", "curve2", "curve3", "edge"]
    rows = list(fig.rows())
    assert len(rows) == 40
    arr = np.array(rows)
    assert np.all(arr[:, 1:4] > fig.lower)
    assert np.all(np.diff(arr[:, 1:4], axis=0) < 0.0)   # decreasing in a
    assert np.all(arr[:, 4] == fig.edge)


def test_figure_curve_hits_edge_at_threshold():
    p = WaveguideParams(F=0.0, d=PI)
    for i in (1, 2, 3):
        a_star = bracket.sufficient_radius(p, i)
        fig = bracket.figure_curves(p, a_star, a_star + 1.0, 2, i)
        first = next(fig.rows())
        assert first[i] == pytest.approx(fig.edge, abs=1e-10)


def test_figure_curves_validation():
    p = WaveguideParams(F=0.0, d=PI)
    with pytest.raises(ValueError):
        bracket.figure_curves(p, 2.0, 1.0, 10)
    with pytest.raises(ValueError):
        bracket.figure_curves(p, 1.0, 2.0, 1)
    for a_max in (math.inf, math.nan):
        with pytest.raises(ValueError):
            bracket.figure_curves(p, 1.0, a_max, 3)
