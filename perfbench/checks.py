"""Correctness checks for every op, run after the timed loop.

References are computed independently of the code paths being timed where
that is cheap: Richardson-extrapolated finite-difference levels, scipy's
Bessel zeros, and ARPACK shift-invert eigenvalues of the same 2-D matrices.
Each check raises :class:`WrongAnswer`; :func:`classify` turns an
op's outcome into ``ok``, ``known_failure``, ``unexpected_failure`` or
``wrong``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from functools import lru_cache

import numpy as np
from scipy.sparse.linalg import eigsh
from scipy.special import jn_zeros

from starklayer import fd2d, specfun, transverse
from starklayer.transverse import BoundaryType, WaveguideParams
from workloads import BC_KINDS

LEVEL_REL = 1e-5          # exact levels against the FD oracle (criterion 3)
CLOSED_FORM_REL = 1e-10   # F = 0 levels against (n pi/d)^2 and ((n-1/2) pi/d)^2
BRACKET_REL = 1e-6        # bracket levels, thresholds and curves against references
Q_REL = 1e-6              # |Q - (A tau + B eps^2 - C eps)| <= Q_REL |Q|
EIG_REL = 1e-9            # 2-D eigenvalues against ARPACK on the same matrix
ORACLE_NODES = 4000

# Error classes the program declares; anything else escaping an op is a crash.
DECLARED_ERRORS = ("SolverError", "QuadratureError", "UnsupportedOrderError",
                   "ConvergenceError", "CertificateError")

_BC = {"dirichlet": BoundaryType.DIRICHLET_DIRICHLET,
       "neumann": BoundaryType.NEUMANN_DIRICHLET}


class WrongAnswer(AssertionError):
    """An op returned an answer that fails its check."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise WrongAnswer(message)


def _close(value: float, ref: float, rel: float) -> bool:
    return abs(value - ref) <= rel * max(abs(ref), 1e-300)


# References ------------------------------------------------------------------

@lru_cache(maxsize=None)
def ref_levels(F: float, d: float, bc: str, count: int) -> tuple:
    """FD oracle at N and 2N nodes, Richardson-extrapolated.

    The N = 4000 oracle alone is O(h^2 lambda) off: 1e-5 to 1e-4 relative
    at count = 20, so it would reject correct levels.  The extrapolation is
    within 1e-8 of the exact solver over the drawn range.
    """
    params = WaveguideParams(F=F, d=d)
    coarse = transverse.fd_levels_oracle(params, _BC[bc], count, ORACLE_NODES)
    fine = transverse.fd_levels_oracle(params, _BC[bc], count, 2 * ORACLE_NODES)
    return tuple((4.0 * f - c) / 3.0 for c, f in zip(coarse, fine))


def ref_window(F: float, d: float) -> tuple:
    return ref_levels(F, d, "neumann", 1)[0], ref_levels(F, d, "dirichlet", 1)[0]


@lru_cache(maxsize=None)
def ref_bessel_zeros(m: int, count: int) -> tuple:
    return tuple(float(x) for x in jn_zeros(m, count))


@lru_cache(maxsize=None)
def ref_sorted_zeros(count: int) -> tuple:
    """First ``count`` zeros of all J_m merged, without any order cap."""
    ceiling = ref_bessel_zeros(0, count)[-1]
    zeros = []
    m = 0
    while ref_bessel_zeros(m, 1)[0] <= ceiling:
        zeros += [x for x in ref_bessel_zeros(m, count) if x <= ceiling]
        m += 1
    return tuple(sorted(zeros)[:count])


def _order_cap_zero() -> float:
    """First zero of the highest Bessel order the program supports."""
    return ref_bessel_zeros(specfun.MAX_BESSEL_ORDER, 1)[0]


# Transverse levels -----------------------------------------------------------

def check_levels(F: float, d: float, bc: str, count: int, values) -> None:
    _require(len(values) == count, f"expected {count} levels, got {len(values)}")
    _require(all(a < b for a, b in zip(values, values[1:])), "levels not increasing")
    if F == 0.0:
        for n, v in enumerate(values, start=1):
            c = n if bc == "dirichlet" else n - 0.5
            ref = (c * math.pi / d) ** 2
            _require(_close(v, ref, CLOSED_FORM_REL), f"level {n}: {v!r} vs closed form {ref!r}")
        return
    for n, (v, ref) in enumerate(zip(values, ref_levels(F, d, bc, count)), start=1):
        _require(_close(v, ref, LEVEL_REL), f"level {n}: {v!r} vs FD oracle {ref!r}")


# Brackets, thresholds, curves ------------------------------------------------

def bracket_fails_at_seed(F: float, d: float, a: float) -> bool:
    """count_certified needs orders above the cap once a*sqrt(gap) > j_{cap,1}."""
    lower, upper = ref_window(F, d)
    return a * math.sqrt(upper - lower) > _order_cap_zero()


def _check_window(lower: float, upper: float, F: float, d: float) -> None:
    ref_lo, ref_up = ref_window(F, d)
    _require(_close(lower, ref_lo, BRACKET_REL), f"window lower {lower!r} vs {ref_lo!r}")
    _require(_close(upper, ref_up, BRACKET_REL), f"window upper {upper!r} vs {ref_up!r}")


def check_bracket(F: float, d: float, a: float, doc: dict) -> None:
    """JSON output of ``bracket`` with the default caps (n <= 6, m <= 64, k <= 100)."""
    win = doc["window"]
    _check_window(win["lower"], win["upper"], F, d)
    edge = win["upper"]
    ests = doc["estimates"]
    nd = ref_levels(F, d, "neumann", 6)
    seen = set()
    for e in ests:
        n, m, k = e["n"], e["m"], e["k"]
        ref = (ref_bessel_zeros(m, k)[k - 1] / a) ** 2 + nd[n - 1]
        _require(_close(e["lam"], ref, BRACKET_REL), f"estimate {(n, m, k)}: {e['lam']!r} vs {ref!r}")
        _require(e["lam"] < edge, f"estimate {(n, m, k)} not below the edge")
        _require(e["multiplicity"] == (1 if m == 0 else 2), f"multiplicity of {(n, m, k)}")
        seen.add((n, m, k))
    _require(doc["count_below_edge"] == sum(e["multiplicity"] for e in ests),
             "count differs from the sum of multiplicities")
    # Completeness: every reference level clearly below the edge is listed.
    room = edge - nd[0]
    xmax = a * math.sqrt(room) * (1.0 - 1e-9)
    for m in range(0, specfun.MAX_BESSEL_ORDER + 1):
        if ref_bessel_zeros(m, 1)[0] >= xmax:
            break
        k = 1
        while k <= 100 and ref_bessel_zeros(m, k)[k - 1] < xmax:
            _require((1, m, k) in seen, f"missing estimate {(1, m, k)}")
            k += 1


def threshold_fails_at_seed(i: int) -> bool:
    """sorted_bessel_zeros(i) needs orders above the cap once j_{0,i} >= j_{cap,1}."""
    return ref_bessel_zeros(0, i)[-1] >= _order_cap_zero()


def check_threshold(F: float, d: float, i: int, rows) -> None:
    """Rows ``(j, a*_j)`` for j = 1..i."""
    _require([j for j, _ in rows] == list(range(1, i + 1)), "threshold indices")
    values = [v for _, v in rows]
    _require(all(x < y for x, y in zip(values, values[1:])), "a*_i not increasing in i")
    lower, upper = ref_window(F, d)
    zeros = ref_sorted_zeros(i)
    for j, v in rows:
        ref = zeros[j - 1] / math.sqrt(upper - lower)
        _require(_close(v, ref, BRACKET_REL), f"a*_{j}: {v!r} vs {ref!r}")


def check_figure(F: float, d: float, a_min: float, a_max: float, steps: int,
                 i_max: int, header, rows) -> None:
    _require(list(header) == ["a"] + [f"curve{i + 1}" for i in range(i_max)] + ["edge"],
             "figure header")
    _require(len(rows) == steps, "figure row count")
    lower, upper = ref_window(F, d)
    zeros = ref_sorted_zeros(i_max)
    for row, a in zip(rows, np.linspace(a_min, a_max, steps)):
        _require(_close(row[0], float(a), 1e-12), "figure radius grid")
        for x, v in zip(zeros, row[1:-1]):
            ref = (x / a) ** 2 + lower
            _require(_close(v, ref, BRACKET_REL), f"curve at a={a}: {v!r} vs {ref!r}")
        _require(_close(row[-1], upper, BRACKET_REL), "figure edge")


# Certificates ----------------------------------------------------------------

def check_certificate(q: float, A: float, B: float, C: float, tau: float, eps: float) -> None:
    _require(q < 0.0, f"Q = {q!r} is not negative")
    decomposition = A * tau + B * eps ** 2 - C * eps
    _require(abs(q - decomposition) <= Q_REL * abs(q),
             f"Q = {q!r} vs A tau + B eps^2 - C eps = {decomposition!r}")


# 2-D solver ------------------------------------------------------------------

@lru_cache(maxsize=256)
def ref_eigs(F: float, d: float, a: float, problem: str, n: int, k: int, nr: int = 0) -> tuple:
    """ARPACK shift-invert eigenvalues of the matrix the op factorises (nr = n unless given)."""
    params = WaveguideParams(F=F, d=d, a=a)
    r_max = 8.0 * a if problem == "window" else a
    grid = fd2d.CylGrid(nr or n, n, r_max, d)
    op = fd2d.assemble(params, grid, fd2d.WindowBC(fd2d.BCKind[BC_KINDS[problem]]))
    shift = 0.9 * ref_window(F, d)[0]
    vals = eigsh(op.matrix.tocsc(), k=k, sigma=shift, which="LM",
                 v0=np.ones(op.dimension), return_eigenvectors=False)
    return tuple(sorted(float(v) for v in vals))


def _check_values(values, residuals, refs, what: str) -> None:
    _require(len(values) == len(refs), f"{what}: expected {len(refs)} values")
    for v, ref in zip(values, refs):
        _require(_close(v, ref, EIG_REL), f"{what}: {v!r} vs ARPACK {ref!r}")
    for r in residuals:
        _require(r <= fd2d.EIG_RESIDUAL_TOL, f"{what}: residual {r!r} above tolerance")


def check_sandwich(F: float, d: float, a: float, n: int, lowest_window: float) -> None:
    """Inner Neumann <= window <= inner Dirichlet for the lowest level on one grid.

    The lowest inner-Neumann mode is constant in r, so its eigenvalue depends
    on neither a nor the radial grid: eight radial cells give it exactly.
    """
    lo = ref_eigs(F, d, 1.0, "inner-neumann", n, 1, nr=8)[0]
    hi = ref_eigs(F, d, a, "inner-dirichlet", n, 1)[0]
    _require(lo <= lowest_window <= hi,
             f"sandwich {lo!r} <= {lowest_window!r} <= {hi!r} violated")


def check_fd2d(op: dict, answer: dict) -> None:
    F, d, a, n, k, problem = op["F"], op["d"], op["a"], op["n"], op["k"], op["problem"]
    if problem != "ground":
        _check_values(answer["values"], answer["residuals"],
                      ref_eigs(F, d, a, problem, n, k), problem)
        if problem == "window":
            check_sandwich(F, d, a, n, answer["values"][0])
        return
    fine = ref_eigs(F, d, a, "window", n, k)
    coarse = ref_eigs(F, d, a, "window", n // 2, k)
    _check_values(answer["values"], answer["residuals"], fine, "window_ground_state")
    check_sandwich(F, d, a, n, answer["values"][0])
    lower, upper = answer["window"]
    _check_window(lower, upper, F, d)
    for v, flag, err, f, c in zip(answer["values"], answer["below_edge"],
                                  answer["error_estimates"], fine, coarse):
        _require(_close(err, abs(f - c) / 3.0, 1e-6), "Richardson error estimate")
        _require(flag == (v < upper), "below-edge flag")
        if flag:
            _require(lower - err <= v < upper, f"flagged value {v!r} outside [lower - err, upper)")


# CLI output ------------------------------------------------------------------

def _csv_rows(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _argv_options(argv) -> dict:
    opts = {}
    for flag, value in zip(argv[1::2], argv[2::2]):
        opts[flag.lstrip("-")] = value
    return opts


def cli_expected_error(argv) -> str | None:
    """Error class a command is known to raise at the seed, else None."""
    opts = _argv_options(argv)
    if argv[0] == "threshold" and threshold_fails_at_seed(int(opts["i"])):
        return "UnsupportedOrderError"
    if argv[0] == "bracket" and bracket_fails_at_seed(
            float(opts["F"]), float(opts["d"]), float(opts["a"])):
        return "UnsupportedOrderError"
    return None


def check_cli(argv, stdout: str, files: dict) -> None:
    """Check the successful output of one CLI command."""
    opts = _argv_options(argv)
    F, d = float(opts["F"]), float(opts["d"])
    cmd = argv[0]
    if cmd == "levels":
        header, rows = _csv_rows(stdout)
        _require(header == ["n", "lambda"], "levels header")
        check_levels(F, d, opts["bc"], int(opts.get("count", 5)), [float(r[1]) for r in rows])
    elif cmd == "bracket":
        check_bracket(F, d, float(opts["a"]), json.loads(stdout))
    elif cmd == "threshold":
        header, rows = _csv_rows(stdout)
        _require(header == ["i", "a_star"], "threshold header")
        check_threshold(F, d, int(opts.get("i", 1)), [(int(r[0]), float(r[1])) for r in rows])
    elif cmd == "certify":
        doc = json.loads(stdout)
        c, t = doc["coefficients"], doc["trial"]
        _require(doc["valid"] is True, "certificate not valid")
        check_certificate(doc["q_value"], c["A"], c["B"], c["C"], t["tau"], t["eps"])
        _check_window(doc["window"]["lower"], doc["window"]["upper"], F, d)
    elif cmd == "solve2d":
        header, rows = _csv_rows(stdout)
        a, n, k = float(opts["a"]), int(opts.get("nr", 64)), int(opts.get("k", 1))
        problem = opts["problem"]
        values = [float(r[1]) for r in rows]
        _check_values(values, [float(r[2]) for r in rows],
                      ref_eigs(F, d, a, problem, n, k), "solve2d")
        if problem == "window":
            check_sandwich(F, d, a, n, values[0])
            upper = ref_window(F, d)[1]
            _require([r[3] for r in rows] == [("true" if v < upper else "false") for v in values],
                     "below_edge column")
    elif cmd == "figure":
        header, rows = _csv_rows(files[opts["out"]])
        check_figure(F, d, float(opts["a-min"]), float(opts["a-max"]), int(opts.get("steps", 200)),
                     int(opts.get("i-max", 3)), header, [[float(x) for x in r] for r in rows])
    else:
        raise WrongAnswer(f"no check for command {cmd}")


# Outcome classification ------------------------------------------------------

def expected_error(op: dict) -> str | None:
    if op["kind"] == "cli":
        return cli_expected_error(op["argv"])
    if op["kind"] == "fd2d" and op["problem"] in ("window", "ground") and op["k"] >= 3:
        return "ConvergenceError"
    return None


def classify(op: dict, result: dict) -> tuple[str, str]:
    """``(status, detail)`` for one op outcome.

    A failure is ``known`` when the op is of a kind that fails at the seed
    with that error class (or ran into the per-op deadline), ``unexpected``
    for any other declared error class, and ``wrong`` for an undeclared
    exception or an answer that fails its check.
    """
    error = result.get("error")
    if error is not None:
        if error == "Deadline":
            return "known_failure", "per-op deadline"
        if error not in DECLARED_ERRORS:
            return "wrong", f"undeclared exception {error}: {result.get('message', '')}"
        if error == expected_error(op):
            return "known_failure", error
        return "unexpected_failure", error
    try:
        if op["kind"] == "cli":
            check_cli(op["argv"], result["stdout"], result.get("files", {}))
        else:
            check_fd2d(op, result["answer"])
    except (WrongAnswer, KeyError, ValueError, IndexError) as exc:
        return "wrong", f"{type(exc).__name__}: {exc}"
    return "ok", ""
