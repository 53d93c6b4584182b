"""Seeded op lists for the two benchmark workloads.

Pure Python (``random.Random``), so the same seed gives the same ops on any
machine and under any numpy.  Every op is a JSON-serialisable dict with an
``id``, a ``cycle``, a ``kind`` (``cli`` or ``fd2d``) and the ``deadline_s``
after which it is stopped and counted as failed.

A run is cycle 0, the fixed cases, followed by a whole number of seeded
cycles that depends only on ``--seconds`` (:func:`cycles_for`), never on how
fast the program runs.  So two commits run exactly the same ops, and the
latency percentiles sit at the same ranks.  Every seeded cycle has the same
strata, with a fixed number of ops each; the seed draws the values inside
each stratum.  Sampling each parameter over its whole range per op would make
the end-to-end numbers depend on the seed more than on the program, because
per-op times at the seed range from 0.1 s to 6 s.
"""

from __future__ import annotations

import math
import random

PI_TEXT = "3.141592653589793"
PI = math.pi

WORKLOADS = ("cli_session", "fd2d_window")

# Problem name -> member name of ``fd2d.BCKind``.
BC_KINDS = {"window": "TRUNCATED_FULL",
            "inner-dirichlet": "INNER_DIRICHLET",
            "inner-neumann": "INNER_NEUMANN"}

# Seconds that cycle 0 and one seeded cycle take at the seed, on a 2-core
# x86-64 box.  They size a run: never read back from the clock.
TIMING_S = {"cli_session": (10.0, 60.0), "fd2d_window": (5.0, 21.0)}


def cycles_for(workload: str, seconds: float) -> int:
    """Seeded cycles in a run of about ``seconds``: the nearest whole number, at least 1."""
    fixed, cycle = TIMING_S[workload]
    return max(1, round((seconds - fixed) / cycle))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _draw(rng: random.Random, band) -> float:
    """A fixed value, or log-uniform on ``(lo, hi)``."""
    return band if isinstance(band, float) else _log_uniform(rng, *band)


def _num(x: float) -> str:
    # Shortest round-trip text: the CLI parses exactly the drawn value.
    return repr(float(x))


def _d_text(d: float) -> str:
    return PI_TEXT if d == PI else "1"


def _interleaved(ops: list) -> list:
    """``ops`` in a fixed order that spreads each stratum over the cycle.

    The machine's speed drifts over seconds; with the strata run in blocks,
    one slow spell would slow every op of a kind, and the latency
    percentiles with it.  The j-th op goes to the rank of frac(j / golden
    ratio), a low-discrepancy order.
    """
    return [ops[j] for j in sorted(range(len(ops)), key=lambda j: (j * 0.6180339887498949) % 1.0)]


def _numbered(fixed: list[dict], cycle, cycles: int) -> list[dict]:
    """Cycle 0 is ``fixed``; then ``cycles`` calls of ``cycle()``; ops numbered in order."""
    ops = [{"cycle": 0, **op} for op in fixed]
    for c in range(1, cycles + 1):
        ops += [{"cycle": c, **op} for op in _interleaved(cycle())]
    return [{"id": i, **op} for i, op in enumerate(ops)]


# cli_session -----------------------------------------------------------------

# The six command lines of the README, verbatim.
README_COMMANDS = [
    ["levels", "--F", "0", "--d", PI_TEXT, "--bc", "dirichlet", "--count", "3"],
    ["bracket", "--F", "0", "--d", PI_TEXT, "--a", "10", "--format", "json"],
    ["threshold", "--F", "0", "--d", PI_TEXT, "--i", "3"],
    ["certify", "--F", "1", "--d", "1", "--a", "1", "--format", "json"],
    ["solve2d", "--F", "1", "--d", PI_TEXT, "--a", "3", "--problem", "window",
     "--nr", "128", "--nz", "128", "--k", "2"],
    ["figure", "--F", "0.01", "--d", "1", "--a-min", "0.5", "--a-max", "10",
     "--steps", "200", "--out", "curves.csv"],
]
# Criterion-7 corner with a weak field and a wide window: (F, d, a).
CERTIFY_CORNER = (0.01, 1.0, 20.0)
CLI_DEADLINE_S = 20.0

# Each table row is one stratum; its last entry is the number of ops it gets
# in every seeded cycle.
# `levels --method exact`: (F, d, bc, count).  F = 0, then log-uniform bands
# that tile [1e-2, 1e4].
_LEVELS = (
    (0.0, 1.0, "neumann", 20, 1),
    (0.0, 1.0, "dirichlet", 3, 1),
    (0.0, PI, "dirichlet", 5, 1),
    ((1e-2, 1e-1), PI, "dirichlet", 3, 3),
    ((1e-1, 1.0), 1.0, "neumann", 5, 3),
    ((1.0, 10.0), PI, "dirichlet", 20, 2),
    ((10.0, 1e2), 1.0, "neumann", 3, 2),
    ((1e2, 1e3), PI, "dirichlet", 5, 1),
    ((1e3, 1e4), 1.0, "dirichlet", 20, 1),
)
# `bracket` at F = 0: (a band, d).  The bands tile [0.5, 100]; a > 82.8 at
# d = pi fails at the seed with UnsupportedOrderError.
_BRACKET = (
    ((0.5, 2.0), 1.0, 4),
    ((2.0, 8.0), PI, 3),
    ((8.0, 25.0), PI, 2),
    ((25.0, 85.0), PI, 1),
    ((85.0, 100.0), PI, 1),
)
# `threshold`: (i range, F, d).  The ranges tile 1..30; i >= 24 fails at
# the seed with UnsupportedOrderError.  Cost grows with i: 1 s at i = 5,
# 5 s at i = 23.
_THRESHOLD = (
    ((1, 8), (1e-2, 1.0), 1.0, 6),
    ((9, 16), (1e-2, 1.0), PI, 1),
    ((17, 23), 0.0, 1.0, 1),
    ((24, 30), 0.0, PI, 1),
)
# `certify`: (F, d), a log-uniform on [0.05, 20].  Only F where the Airy
# arguments of chi_1 stay outside the double-double series region: there a
# certificate takes 1 s, above it 8-16 s (F > 1.2 at d = 1, F > 0.04 at
# d = pi).
_CERTIFY = (
    (0.0, 1.0, 2),
    (0.0, PI, 1),
    ((1e-2, 1.0), 1.0, 2),
    ((1e-2, 0.03), PI, 1),
)


def _repeat(table):
    for *stratum, times in table:
        for _ in range(times):
            yield stratum


def _cli_cycle(rng: random.Random) -> list[list[str]]:
    argvs = []
    for band, d, bc, count in _repeat(_LEVELS):
        argvs.append(["levels", "--F", _num(_draw(rng, band)), "--d", _d_text(d),
                      "--bc", bc, "--count", str(count), "--method", "exact"])
    for band, d in _repeat(_BRACKET):
        argvs.append(["bracket", "--F", "0", "--d", _d_text(d),
                      "--a", _num(_draw(rng, band)), "--format", "json"])
    for (lo, hi), band, d in _repeat(_THRESHOLD):
        argvs.append(["threshold", "--F", _num(_draw(rng, band)), "--d", _d_text(d),
                      "--i", str(rng.randint(lo, hi))])
    for band, d in _repeat(_CERTIFY):
        argvs.append(["certify", "--F", _num(_draw(rng, band)), "--d", _d_text(d),
                      "--a", _num(_log_uniform(rng, 0.05, 20.0)), "--format", "json"])
    return argvs


def cli_session(seed: int, cycles: int) -> list[dict]:
    """The README commands and a certify corner, then cycles of seeded commands.

    Most commands a user types return in about a second, most of it process
    start and import; the cycle keeps that majority and adds the slow bands
    (count 20 at strong field, wide windows, high threshold indices) and
    both known failures.
    """
    rng = random.Random(f"cli_session:{seed}")
    F, d, a = CERTIFY_CORNER
    fixed = README_COMMANDS + [["certify", "--F", _num(F), "--d", _d_text(d),
                                "--a", _num(a), "--format", "json"]]

    def op(argv):
        return {"kind": "cli", "argv": list(argv), "deadline_s": CLI_DEADLINE_S}
    return _numbered([op(argv) for argv in fixed],
                     lambda: [op(argv) for argv in _cli_cycle(rng)], cycles)


# fd2d_window -----------------------------------------------------------------

FD2D_FIXED = [
    # README `solve2d` case.
    {"problem": "window", "F": 1.0, "a": 3.0, "n": 128, "k": 2},
    # `solve2d --F 1 --d pi --a 3 --problem window --k 3` on the default
    # 64^2 grid: spins at the seed (ConvergenceError after about 11 s), so it
    # runs into the 4 s deadline.
    {"problem": "window", "F": 1.0, "a": 3.0, "n": 64, "k": 3},
]
# Per-op deadlines, about twice the slowest correct solve at the seed on
# each grid: a spinning power iteration stops there and counts as failed.
FD2D_DEADLINE_S = {64: 4.0, 128: 12.0}
_FD_FIELDS = (0.0, 0.1, 1.0, 10.0)
_FD_PROBLEMS = ("window", "inner-dirichlet", "inner-neumann", "ground")
_FD_SHAPES = ((64, 1), (64, 2), (128, 1), (128, 2))
# (problem, F, grid, k): every problem at every field on three of the four
# (grid, k) shapes, each shape left out at a different (problem, F), plus
# two k = 3 solves on 64^2.  The window one converges for every a at the
# seed; window_ground_state at F = 1 spins for every a in 2.5..3.3, so that
# stratum is one known failure per cycle.
_FD2D = tuple((problem, F) + shape
              for p, problem in enumerate(_FD_PROBLEMS)
              for f, F in enumerate(_FD_FIELDS)
              for s, shape in enumerate(_FD_SHAPES) if s != (p + f) % 4) + (
    ("window", 0.1, 64, 3), ("ground", 1.0, 64, 3))
# Power-iteration counts swing several-fold with a (near-degenerate pairs),
# so each stratum draws a from its own narrow band: the N = 49 strata that
# converge tile [1, 5] with equal bands, the i-th of them taking band
# 10 i mod N (N is coprime with 10), so that neighbouring strata get distant
# bands.
_FD_FAILING_BAND = (2.6, 3.2)
_FD_TILED = [j for j, (problem, _, _, k) in enumerate(_FD2D) if (problem, k) != ("ground", 3)]
assert math.gcd(10, len(_FD_TILED)) == 1
_FD_A_BANDS = {j: (1.0 + 4.0 * (10 * i % len(_FD_TILED)) / len(_FD_TILED),
                   1.0 + 4.0 * (10 * i % len(_FD_TILED) + 1) / len(_FD_TILED))
               for i, j in enumerate(_FD_TILED)}


def fd2d_window(seed: int, cycles: int) -> list[dict]:
    """README solve, the default-grid failing solve, then seeded 2-D problems.

    ``problem`` is ``window`` (truncated at 8a), ``inner-dirichlet`` or
    ``inner-neumann`` (cylinder r <= a), each an ``assemble`` plus
    ``lowest_eigs``; or ``ground``, a ``window_ground_state`` call.  a is
    uniform on its stratum's band of [1, 5].
    """
    rng = random.Random(f"fd2d_window:{seed}")

    def op(**c):
        return {"kind": "fd2d", "d": PI, "deadline_s": FD2D_DEADLINE_S[c["n"]], **c}

    def cycle():
        ops = []
        for j, (problem, F, n, k) in enumerate(_FD2D):
            band = _FD_A_BANDS.get(j, _FD_FAILING_BAND)
            ops.append(op(problem=problem, F=F, n=n, k=k, a=rng.uniform(*band)))
        return ops
    return _numbered([op(**c) for c in FD2D_FIXED], cycle, cycles)


GENERATORS = {"cli_session": cli_session, "fd2d_window": fd2d_window}


def op_list(workload: str, seed: int, cycles: int) -> list[dict]:
    """Cycle 0 and ``cycles`` seeded cycles of the workload, for ``seed``."""
    return GENERATORS[workload](seed, cycles)
