"""Command-line front end with deterministic CSV/JSON output.

Identical invocations produce byte-identical output: floats are rendered with
the shortest round-trip representation, all solver paths are deterministic,
and JSON carries the parsed configuration, the tolerance constants, and the
provenance of the method used.

Exit codes: 0 success, 1 solver failure (failure report on stderr),
2 validation error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass

from . import bracket, fd2d, specfun, transverse
from .certify import CertificateError
from .certify import certify as _run_certify
from .transverse import BoundaryType, WaveguideParams

__all__ = ["RunConfig", "run", "main"]

_BC_NAMES = {
    "dirichlet": BoundaryType.DIRICHLET_DIRICHLET,
    "neumann": BoundaryType.NEUMANN_DIRICHLET,
}

_PROBLEM_NAMES = {
    "inner-dirichlet": fd2d.BCKind.INNER_DIRICHLET,
    "inner-neumann": fd2d.BCKind.INNER_NEUMANN,
    "window": fd2d.BCKind.TRUNCATED_FULL,
}


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation: command, physical parameters, per-command options."""

    command: str
    F: float
    d: float
    a: float
    options: dict

    def params(self) -> WaveguideParams:
        return WaveguideParams(F=self.F, d=self.d, a=self.a)


def _tolerance_report() -> dict:
    report = dict(specfun.TOLERANCES)
    report["level_rel"] = transverse.LEVEL_REL_TOL
    report["boundary_residual"] = transverse.BOUNDARY_RESIDUAL_TOL
    report["eig_residual"] = fd2d.EIG_RESIDUAL_TOL
    return report


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    return repr(float(v))


def _emit(header, rows, payload, config: RunConfig, out) -> None:
    if config.options.get("format", "csv") == "json":
        doc = {
            "config": dataclasses.asdict(config),
            "tolerances": _tolerance_report(),
        }
        doc.update(payload)
        out.write(json.dumps(doc, indent=2))
        out.write("\n")
    else:
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(_fmt(v) for v in row) + "\n")


def _cmd_levels(config: RunConfig):
    params = config.params()
    bc = _BC_NAMES[config.options["bc"]]
    count = config.options["count"]
    if not 1 <= count <= 100:
        raise ValueError("count must be in 1..100")
    method = config.options["method"]
    if method == "exact":
        vals = [lvl.lam for lvl in transverse.levels(params, bc, count)]
        header = ["n", "lambda"]
        rows = [(n + 1, v) for n, v in enumerate(vals)]
        payload = {"method": "exact", "levels": [float(v) for v in vals]}
    elif method == "fd":
        vals = transverse.fd_levels_oracle(params, bc, count, config.options["nodes"])
        header = ["n", "lambda"]
        rows = [(n + 1, v) for n, v in enumerate(vals)]
        payload = {"method": "fd", "nodes": config.options["nodes"],
                   "levels": [float(v) for v in vals]}
    elif method == "asymptotic-weak":
        vals = [transverse.asymptotic_weak(params, bc, n) for n in range(1, count + 1)]
        header = ["n", "lambda_stated_convention"]
        rows = [(n + 1, v) for n, v in enumerate(vals)]
        payload = {"method": "asymptotic-weak", "stated_convention": True,
                   "levels": [float(v) for v in vals]}
    else:  # asymptotic-strong
        stated = [transverse.asymptotic_strong(params, bc, n) for n in range(1, count + 1)]
        airy = [transverse.strong_field_airy_level(params, bc, n) for n in range(1, count + 1)]
        header = ["n", "lambda_stated_convention", "lambda_airy_zero", "ratio"]
        rows = [(n + 1, s, t, s / t) for n, (s, t) in enumerate(zip(stated, airy))]
        payload = {"method": "asymptotic-strong", "stated_convention": True,
                   "levels_stated_convention": [float(v) for v in stated],
                   "levels_airy_zero": [float(v) for v in airy]}
    return header, rows, payload


def _cmd_bracket(config: RunConfig):
    params = config.params()
    win = bracket.window(params)
    below = config.options.get("below")
    if below is None:
        below = win.upper
    ests = bracket.dirichlet_disc_levels(params, below)
    if params.a <= 0.0:
        print("note: window radius a = 0 has no inner cylinder; no bracket levels",
              file=sys.stderr)
    header = ["n", "m", "k", "lambda", "multiplicity"]
    rows = [(e.n, e.m, e.k, e.lam, e.multiplicity) for e in ests]
    payload = {
        "method": "exact",
        "window": {"lower": win.lower, "upper": win.upper},
        "below": float(below),
        "estimates": [dataclasses.asdict(e) for e in ests],
        "count_below_edge": bracket.count_certified(params),
    }
    return header, rows, payload


def _cmd_threshold(config: RunConfig):
    params = config.params()
    i = config.options["i"]
    win = bracket.window(params)
    rows = list(enumerate(bracket.sufficient_radii(params, i), start=1))
    payload = {
        "method": "exact",
        "window": {"lower": win.lower, "upper": win.upper},
        "thresholds": [{"i": j, "a_star": float(v)} for j, v in rows],
    }
    return ["i", "a_star"], rows, payload


def _cmd_certify(config: RunConfig):
    params = config.params()
    cert = _run_certify(params)
    header = ["q_value", "valid", "A", "B", "C", "tau", "eps", "b",
              "window_lower", "window_upper"]
    rows = [(cert.q_value, cert.valid, cert.coeff_A, cert.coeff_B, cert.coeff_C,
             cert.spec.tau, cert.spec.eps, cert.spec.b,
             cert.window.lower, cert.window.upper)]
    payload = {
        "method": "closed-form",
        "q_value": float(cert.q_value),
        "valid": bool(cert.valid),
        "coefficients": {"A": float(cert.coeff_A), "B": float(cert.coeff_B),
                         "C": float(cert.coeff_C)},
        "trial": {"a": cert.spec.a, "b": cert.spec.b, "tau": cert.spec.tau,
                  "eps": cert.spec.eps, "phi": cert.spec.phi,
                  "varphi": cert.spec.varphi},
        "window": {"lower": cert.window.lower, "upper": cert.window.upper},
    }
    return header, rows, payload


def _cmd_solve2d(config: RunConfig):
    params = config.params()
    kind = _PROBLEM_NAMES[config.options["problem"]]
    m = config.options["m"]
    win = bracket.window(params)
    window_problem = kind is fd2d.BCKind.TRUNCATED_FULL
    grid = fd2d.CylGrid(config.options["nr"], config.options["nz"],
                        8.0 * params.a if window_problem else params.a, params.d)
    res = fd2d.lowest_eigs(fd2d.assemble(params, grid, fd2d.WindowBC(kind, m)),
                           config.options["k"])
    header = ["k", "lambda", "residual"]
    rows = [(i + 1, v, r) for i, (v, r) in enumerate(zip(res.values, res.residuals))]
    if window_problem:
        header.append("below_edge")
        rows = [row + (row[1] < win.upper,) for row in rows]
    payload = {
        "method": "fd",
        "problem": config.options["problem"],
        "grid": {"nr": grid.nr, "nz": grid.nz, "r_max": grid.r_max, "d": grid.d},
        "angular_order": m,
        "window": {"lower": win.lower, "upper": win.upper},
        "values": [float(v) for v in res.values],
        "residuals": [float(r) for r in res.residuals],
    }
    return header, rows, payload


def _cmd_figure(config: RunConfig):
    params = config.params()
    fig = bracket.figure_curves(params, config.options["a_min"],
                                config.options["a_max"], config.options["steps"],
                                config.options["i_max"])
    header = fig.header
    rows = list(fig.rows())
    payload = {
        "method": "exact",
        "window": {"lower": fig.lower, "upper": fig.edge},
        "header": header,
        "rows": [[float(v) for v in row] for row in rows],
    }
    return header, rows, payload


_HANDLERS = {
    "levels": _cmd_levels,
    "bracket": _cmd_bracket,
    "threshold": _cmd_threshold,
    "certify": _cmd_certify,
    "solve2d": _cmd_solve2d,
    "figure": _cmd_figure,
}


def run(config: RunConfig, out=None) -> int:
    """Dispatch a parsed configuration; returns the process exit status."""
    stream = out if out is not None else sys.stdout
    try:
        header, rows, payload = _HANDLERS[config.command](config)
    except (transverse.SolverError, specfun.UnsupportedOrderError,
            fd2d.ConvergenceError, CertificateError) as exc:
        report = {"config": dataclasses.asdict(config),
                  "error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(report, indent=2), file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(header, rows, payload, config, stream)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starklayer",
        description="Bound states of a field-biased layer with a Neumann disc window.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_a=False):
        p.add_argument("--F", type=float, required=True, help="field intensity (>= 0)")
        p.add_argument("--d", type=float, required=True, help="layer width, in [1e-100, 1e100]")
        p.add_argument("--a", type=float, default=0.0, required=need_a,
                       help="window radius (>= 0)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("levels", help="transverse spectra")
    common(p)
    p.add_argument("--bc", choices=sorted(_BC_NAMES), required=True)
    p.add_argument("--count", type=int, default=5)
    p.add_argument("--method", choices=("exact", "fd", "asymptotic-weak",
                                        "asymptotic-strong"), default="exact")
    p.add_argument("--nodes", type=int, default=4000)

    p = sub.add_parser("bracket", help="inner-cylinder bracket levels")
    common(p)
    p.add_argument("--below", type=float, default=None,
                   help="threshold (default: essential-spectrum edge)")

    p = sub.add_parser("threshold", help="sufficient window radii a*_i")
    common(p)
    p.add_argument("--i", type=int, default=1)

    p = sub.add_parser("certify", help="negative-Q bound-state certificate")
    common(p, need_a=True)

    p = sub.add_parser("solve2d", help="2-D finite-difference eigensolver")
    common(p, need_a=True)
    p.add_argument("--problem", choices=sorted(_PROBLEM_NAMES), required=True)
    p.add_argument("--nr", type=int, default=64)
    p.add_argument("--nz", type=int, default=64)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--m", type=int, default=0)

    p = sub.add_parser("figure", help="bracket-curve sweep over the window radius")
    common(p)
    p.add_argument("--a-min", dest="a_min", type=float, required=True)
    p.add_argument("--a-max", dest="a_max", type=float, required=True)
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--i-max", dest="i_max", type=int, default=3)

    return parser


_COMMON_KEYS = {"command", "F", "d", "a", "out"}


def config_from_args(args: argparse.Namespace) -> RunConfig:
    options = {k: v for k, v in vars(args).items() if k not in _COMMON_KEYS}
    return RunConfig(command=args.command, F=args.F, d=args.d, a=args.a,
                     options=options)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    config = config_from_args(args)
    if args.out is None:
        return run(config)
    # Write beside the target and rename only on success, so a failed run
    # neither creates nor truncates the output file.
    tmp = f"{args.out}.{os.getpid()}.tmp"
    try:
        with open(tmp, "x", encoding="utf-8") as fh:
            code = run(config, out=fh)
        if code == 0:
            os.replace(tmp, args.out)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return code


if __name__ == "__main__":
    sys.exit(main())
