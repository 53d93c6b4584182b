"""In-process op runner for the fd2d_window workload.

Reads a job ``{"ops", "trace"}`` as JSON on stdin and runs the ops in order,
one at a time, each under its own ``deadline_s``.  Prints one JSON document:
per-op results, the spans when tracing, and the process's peak resident
memory.  Run with the checkout's ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import time

import spans as spanlib
from workloads import BC_KINDS

import starklayer
from starklayer import fd2d
from starklayer.transverse import WaveguideParams


class Deadline(Exception):
    """The op ran past its deadline."""


def _on_alarm(signum, frame):
    raise Deadline()


def run_fd2d(op: dict) -> dict:
    params = WaveguideParams(F=op["F"], d=op["d"], a=op["a"])
    n, k = op["n"], op["k"]
    if op["problem"] == "ground":
        res = fd2d.window_ground_state(params, nr=n, nz=n, k=k)
        return {"values": res.eig.values, "residuals": res.eig.residuals,
                "window": [res.window.lower, res.window.upper],
                "below_edge": res.below_edge, "error_estimates": res.error_estimates}
    r_max = 8.0 * op["a"] if op["problem"] == "window" else op["a"]
    matrix = fd2d.assemble(params, fd2d.CylGrid(n, n, r_max, op["d"]),
                           fd2d.WindowBC(fd2d.BCKind[BC_KINDS[op["problem"]]]))
    res = fd2d.lowest_eigs(matrix, k)
    return {"values": res.values, "residuals": res.residuals}


def run_ops(ops: list, tracer=None) -> tuple[list, float]:
    """Run ``ops`` in order; returns the per-op records and the loop's wall time."""
    signal.signal(signal.SIGALRM, _on_alarm)
    results = []
    start = time.perf_counter()
    for op in ops:
        if tracer:
            tracer.begin_op(op["id"])
        rec = {"id": op["id"], "error": None}
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, op["deadline_s"])
            try:
                rec["answer"] = run_fd2d(op)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
        except Exception as exc:  # every failure is recorded and classified later
            rec.pop("answer", None)
            rec["error"] = type(exc).__name__
            rec["message"] = str(exc)[:300]
        rec["wall_s"] = time.perf_counter() - t0
        results.append(rec)
    return results, time.perf_counter() - start


def main() -> int:
    job = json.load(sys.stdin)
    tracer = spanlib.Tracer() if job["trace"] else None
    if tracer:
        spanlib.install(tracer)
    results, loop_wall = run_ops(job["ops"], tracer)
    doc = {"results": results, "loop_wall_s": loop_wall,
           "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
           "starklayer": starklayer.__file__}
    if tracer:
        doc["spans"] = {str(k): spanlib.finish_spans(v) for k, v in tracer.ops.items()}
    json.dump(doc, sys.stdout, default=lambda o: o.item())
    return 0


if __name__ == "__main__":
    sys.exit(main())
