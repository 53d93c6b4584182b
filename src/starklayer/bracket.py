"""Analytic two-sided localization of the windowed operator's discrete spectrum.

The inner cylinder of radius ``a`` with a Dirichlet side wall separates into
Bessel radial modes and mixed transverse levels, giving the explicit
eigenvalues ``(x_{m,k}/a)^2 + lambda_inf_n``.  By min-max these are upper
bounds for the windowed layer, so every such value below the essential-
spectrum edge certifies one eigenvalue (two for angular order m >= 1).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from . import specfun
from .transverse import BoundaryType, WaveguideParams, ground_level, levels

__all__ = [
    "SpectralWindow",
    "BracketEstimate",
    "FigureCurves",
    "window",
    "dirichlet_disc_levels",
    "count_certified",
    "sufficient_radius",
    "sufficient_radii",
    "sorted_bessel_zeros",
    "figure_curves",
]


@dataclass(frozen=True)
class SpectralWindow:
    """Interval [lower, upper) = [first mixed level, essential-spectrum edge)."""

    lower: float
    upper: float

    @property
    def gap(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True)
class BracketEstimate:
    """Inner-cylinder Dirichlet eigenvalue ``(x_{m,k}/a)^2 + lambda_inf_n``.

    Angular orders m >= 1 carry multiplicity 2 (the two rotation senses).
    """

    n: int
    m: int
    k: int
    lam: float
    multiplicity: int


def window(params: WaveguideParams) -> SpectralWindow:
    """Spectral window: the discrete spectrum is confined to [lower, upper)."""
    lower = ground_level(params.F, params.d, BoundaryType.NEUMANN_DIRICHLET).lam
    upper = ground_level(params.F, params.d, BoundaryType.DIRICHLET_DIRICHLET).lam
    return SpectralWindow(lower=lower, upper=upper)


def dirichlet_disc_levels(params: WaveguideParams, below: float) -> list[BracketEstimate]:
    """Every inner-cylinder level strictly below ``below``, ascending.

    Each is an upper bound for an eigenvalue of the windowed layer; a zero
    radius has none.  As ``lambda_ND,n+1 > lambda_DD,n >= (n pi/d)^2``, the
    first ``floor(d sqrt(below)/pi) + 1`` mixed levels suffice (the ground
    level alone up to the edge).  Refuses a non-finite threshold or one past
    100 mixed levels (``ValueError``), and one that needs an angular order
    past ``MAX_BESSEL_ORDER`` (``UnsupportedOrderError``).
    """
    if not math.isfinite(below):
        raise ValueError(f"threshold below must be finite, got {below!r}")
    if params.a <= 0.0:
        return []
    if below <= window(params).upper:
        nd = [ground_level(params.F, params.d, BoundaryType.NEUMANN_DIRICHLET)]
    else:
        count = math.floor(params.d * math.sqrt(below) / math.pi) + 1
        if count > 100:
            raise ValueError(f"threshold below={below!r} needs {count} transverse levels; "
                             "at most 100 are solved")
        nd = levels(params, BoundaryType.NEUMANN_DIRICHLET, count)
    a = params.a
    # The ground level has the most room: past the order cap the list would be cut short.
    if specfun.bessel_zero(specfun.MAX_BESSEL_ORDER, 1) < a * math.sqrt(max(below - nd[0].lam, 0.0)):
        raise specfun.UnsupportedOrderError(
            f"window radius a={a} requires angular orders beyond {specfun.MAX_BESSEL_ORDER}")
    out = []
    for lvl in nd:
        room = below - lvl.lam
        if room <= 0.0:
            break
        xmax = a * math.sqrt(room)
        m = 0
        while (x := specfun.bessel_zero(m, 1)) < xmax:
            k = 1
            while x < xmax:
                out.append(BracketEstimate(n=lvl.n, m=m, k=k, lam=(x / a) ** 2 + lvl.lam,
                                           multiplicity=1 if m == 0 else 2))
                k += 1
                x = specfun.bessel_zero(m, k)
            m += 1
    out.sort(key=lambda e: (e.lam, e.m, e.k, e.n))
    return out


def count_certified(params: WaveguideParams) -> int:
    """Certified lower bound (with multiplicity) on the number of eigenvalues
    below the essential spectrum."""
    return sum(e.multiplicity for e in dirichlet_disc_levels(params, window(params).upper))


def sorted_bessel_zeros(count: int) -> list[float]:
    """First ``count`` positive zeros of all ``J_m`` merged and sorted ascending.

    Ties (none exist analytically) resolve to the smaller order.
    """
    count = int(count)
    if count < 1:
        raise ValueError("count must be >= 1")
    heap = [(specfun.bessel_zero(0, 1), 0, 1)]
    zeros = []
    while True:
        x, m, k = heapq.heappop(heap)
        zeros.append(x)
        if len(zeros) == count:
            return zeros
        heapq.heappush(heap, (specfun.bessel_zero(m, k + 1), m, k + 1))
        if k == 1:
            # j_{m,1} < j_{m+1,1}: order m+1 cannot come earlier than this.
            if m == specfun.MAX_BESSEL_ORDER:
                raise specfun.UnsupportedOrderError(
                    f"sorted zero list of length {count} requires orders beyond "
                    f"{specfun.MAX_BESSEL_ORDER}")
            heapq.heappush(heap, (specfun.bessel_zero(m + 1, 1), m + 1, 1))


def sufficient_radius(params: WaveguideParams, i: int) -> float:
    """Threshold radius ``a*_i = x(i) / sqrt(edge - lower)``.

    For ``a > a*_i`` at least ``i`` inner-cylinder curves dip below the
    essential-spectrum edge.
    """
    return sufficient_radii(params, i)[-1]


def sufficient_radii(params: WaveguideParams, i: int) -> list[float]:
    """Threshold radii ``a*_1 .. a*_i`` from one merge of the Bessel zeros."""
    i = int(i)
    if i < 1:
        raise ValueError("curve index must be >= 1")
    root_gap = math.sqrt(window(params).gap)
    return [x / root_gap for x in sorted_bessel_zeros(i)]


@dataclass(frozen=True)
class FigureCurves:
    """Sweep of the first ``i_max`` inner-cylinder curves against the window edge."""

    a: np.ndarray
    curves: np.ndarray           # shape (steps, i_max)
    edge: float
    lower: float

    @property
    def header(self) -> list[str]:
        return ["a"] + [f"curve{i+1}" for i in range(self.curves.shape[1])] + ["edge"]

    def rows(self):
        for j in range(self.a.shape[0]):
            yield (float(self.a[j]), *(float(v) for v in self.curves[j]), self.edge)


def figure_curves(params: WaveguideParams, a_min: float, a_max: float,
                  steps: int, i_max: int = 3) -> FigureCurves:
    """Rows ``(a, (x(i)/a)^2 + lower ... , edge)`` over a uniform radius sweep."""
    if not (0.0 < a_min < a_max < math.inf):
        raise ValueError("need 0 < a_min < a_max < inf")
    steps = int(steps)
    if steps < 2:
        raise ValueError("steps must be >= 2")
    win = window(params)
    xs = np.array(sorted_bessel_zeros(int(i_max)))
    a = np.linspace(a_min, a_max, steps)
    curves = (xs[None, :] / a[:, None]) ** 2 + win.lower
    return FigureCurves(a=a, curves=curves, edge=win.upper, lower=win.lower)
