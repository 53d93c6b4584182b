"""starklayer benchmark: one closed-loop client, every op checked.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cli_session --seed 1 --seconds 30 --trace 0

Runs the ops of the chosen workload one at a time, checks every answer after
the timed loop, prints a readable summary and, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  ``--seconds`` sets
how many seeded cycles the run holds (``workloads.cycles_for``), so the op
list depends on it and on the seed only, never on the program's speed.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` a traced
pass gives the per-layer ones, followed by an untraced replay of every other
op that measures the tracing overhead.  The package is imported from the
checkout's ``src``; without it the benchmark exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

import spans as spanlib
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# BLAS/OpenMP threads, pinned in the benchmark and every child it spawns: one
# op in flight, one thread, so never more threads than cores.
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170.0
# Samples beyond the reported tail latency.
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "latency_p50_s": "s",
    "latency_tail_s": "s", "ok_ratio": "ratio", "peak_rss_mb": "MB",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def measure_setup(repeats: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until ``import starklayer`` returns."""
    code = "import time, starklayer; print(repr(time.perf_counter()))"
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=True)
        samples.append(float(proc.stdout.strip()) - t0)
    return samples


def spawn(argv: list[str], cwd: str, deadline_s: float) -> dict:
    """Run one child to completion; returns wall time, output, status and peak RSS."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            cwd=cwd, env=child_env())
    killed = threading.Event()

    def kill():
        killed.set()
        proc.kill()
    timer = threading.Timer(deadline_s, kill)
    timer.start()
    chunks = {}

    def pump(name, stream):
        chunks[name] = stream.read()
    readers = [threading.Thread(target=pump, args=(n, s))
               for n, s in (("out", proc.stdout), ("err", proc.stderr))]
    try:
        for r in readers:
            r.start()
        for r in readers:
            r.join()
        # wait4 rather than wait: it returns the child's own resource usage.
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    return {"wall_s": t1 - t0, "exit": proc.returncode, "killed": killed.is_set(),
            "stdout": chunks["out"].decode(), "stderr": chunks["err"].decode(),
            "rss_kb": usage.ru_maxrss}


def cli_error(run: dict) -> tuple:
    """(error class, message) of a finished CLI child, or (None, '') on success."""
    if run["killed"]:
        return "Deadline", ""
    if run["exit"] == 0:
        return None, ""
    if run["exit"] == 1:
        try:
            report = json.loads(run["stderr"])
            return report["error"], report.get("message", "")
        except (ValueError, KeyError):
            pass
    return f"Exit{run['exit']}", run["stderr"][-300:]


def run_cli_ops(ops: list, traced: bool, reruns: bool) -> dict:
    """Spawn one CLI process per op, one at a time.

    With ``reruns``, the first successful seeded ``levels`` with a field is run
    again, untimed, to check that its output is byte-identical.
    """
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    span_path = os.path.join(work, "spans.json")

    def run_one(op, traced):
        out_name = None
        if "--out" in op["argv"]:
            out_name = op["argv"][op["argv"].index("--out") + 1]
            if os.path.exists(os.path.join(work, out_name)):
                os.remove(os.path.join(work, out_name))
        if traced:
            argv = [sys.executable, os.path.join(HERE, "clidriver.py"), span_path]
        else:
            argv = [sys.executable, "-m", "starklayer.cli"]
        run = spawn(argv + op["argv"], work, op["deadline_s"])
        error, message = cli_error(run)
        rec = {"id": op["id"], "wall_s": run["wall_s"], "error": error, "message": message,
               "stdout": run["stdout"], "files": {}}
        if out_name and error is None:
            with open(os.path.join(work, out_name), encoding="utf-8") as fh:
                rec["files"][out_name] = fh.read()
        return run, rec

    results, repeats, op_spans, rss = [], [], {}, 0
    start = time.perf_counter()
    try:
        for op in ops:
            run, rec = run_one(op, traced)
            rss = max(rss, run["rss_kb"])
            results.append(rec)
            if traced and os.path.exists(span_path):
                with open(span_path, encoding="utf-8") as fh:
                    child = json.load(fh)
                os.remove(span_path)
                t_start, t_end = child["wall"]
                rec["child_wall_s"] = t_end - t_start
                op_spans[op["id"]] = child["spans"]
        loop_wall = time.perf_counter() - start
        if reruns:
            by_id = {op["id"]: op for op in ops}
            for rec in results:
                argv = by_id[rec["id"]]["argv"]
                if rec["error"] is None and argv[0] == "levels" and float(argv[2]) > 0.0:
                    repeats.append(run_one(by_id[rec["id"]], False)[1])
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"results": results, "loop_wall_s": loop_wall, "repeats": repeats,
            "peak_rss_kb": rss, "spans": op_spans}


def run_worker_ops(ops: list, traced: bool) -> dict:
    """Run in-process ops in one fresh worker interpreter."""
    job = json.dumps({"ops": ops, "trace": traced})
    timeout = sum(op["deadline_s"] for op in ops) + CHILD_TIMEOUT_S
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")], input=job,
                          capture_output=True, text=True, env=child_env(), cwd=ROOT,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    doc = json.loads(proc.stdout)
    if not os.path.realpath(doc["starklayer"]).startswith(os.path.realpath(SRC) + os.sep):
        raise RuntimeError(f"worker imported starklayer from {doc['starklayer']}")
    doc["spans"] = {int(k): v for k, v in doc.get("spans", {}).items()}
    return doc


def run_ops(workload: str, ops: list, traced: bool, reruns: bool = False) -> dict:
    if workload == "cli_session":
        return run_cli_ops(ops, traced, reruns)
    return run_worker_ops(ops, traced)


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with ``TAIL_BEYOND`` samples beyond it: (value, percentile).

    That is the order statistic ``x[n - 11]`` of the sorted values, at
    percentile ``100 (n - 10) / n``.  With ten samples or fewer no such
    percentile exists; the maximum is reported, as percentile 100.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def classify_all(ops: list, outcome: dict) -> list[tuple]:
    import checks
    by_id = {op["id"]: op for op in ops}
    statuses = [checks.classify(by_id[r["id"]], r) for r in outcome["results"]]
    # Repeats of one CLI command must print byte-identical output.
    index = {r["id"]: i for i, r in enumerate(outcome["results"])}
    for rep in outcome.get("repeats", []):
        i = index[rep["id"]]
        first = outcome["results"][i]
        if (rep["error"], rep["stdout"], rep["files"]) != (None, first["stdout"], first["files"]):
            statuses[i] = ("wrong", "a repeat of this command changed its output")
    return statuses


def summarise(statuses: list[tuple]) -> dict:
    counts = {"ok": 0, "known_failure": 0, "unexpected_failure": 0, "wrong": 0}
    for status, _ in statuses:
        counts[status] += 1
    return counts


def end_to_end(outcome: dict, statuses: list, setup: list[float],
               rss_note: str) -> tuple[dict, list[str]]:
    walls = [r["wall_s"] for r in outcome["results"]]
    n = len(walls)
    ok = sum(1 for s, _ in statuses if s == "ok")
    tail_value, tail_pct = tail(walls)
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": ok / outcome["loop_wall_s"],
        "latency_p50_s": statistics.median(walls),
        "latency_tail_s": tail_value,
        "ok_ratio": ok / n,
        "peak_rss_mb": outcome["peak_rss_kb"] / 1024.0,
    }
    samples = {"setup_s": f"median of n={len(setup)} spawns", "ops_per_s": f"n={ok} ok ops",
               "latency_p50_s": f"n={n} ops", "ok_ratio": f"n={n} ops",
               "latency_tail_s": f"p{tail_pct:.1f} of n={n} ops, {TAIL_BEYOND} beyond",
               "peak_rss_mb": rss_note}
    lines = [f"  {k:<16} {v:>14.6g} {END_TO_END_UNITS[k]:<6} {samples[k]}"
             for k, v in values.items()]
    lines.append(f"  {'fail_ratio':<16} {1.0 - values['ok_ratio']:>14.6g} {'ratio':<6} "
                 f"n={n} ops (= 1 - ok_ratio)")
    return values, lines


def trace_metrics(ops: list, traced: dict, replay: dict) -> tuple[dict, list[str], int]:
    """Per-layer metrics from the traced pass, the tracing overhead, and the self-time check.

    Returns the metrics, summary lines and the number of ops whose span self
    times do not add up to their wall time.
    """
    metrics = spanlib.aggregate(traced["spans"], len(ops))
    recs = {r["id"]: r for r in traced["results"]}
    t_walls = {i: r["wall_s"] for i, r in recs.items()}
    u_walls = {r["id"]: r["wall_s"] for r in replay["results"]}
    common = [i for i in t_walls if i in u_walls]
    t_sum = sum(t_walls[i] for i in common)
    u_sum = sum(u_walls[i] for i in common)
    metrics["trace.overhead_ratio"] = t_sum / u_sum - 1.0
    metrics["trace.overhead_p50_s"] = (statistics.median(t_walls[i] for i in common)
                                       - statistics.median(u_walls[i] for i in common))
    # A CLI op's spans live in the child, which measures its own wall time;
    # the rest of the op's wall time is process start and exit.
    cli = any("child_wall_s" in r for r in recs.values())
    if cli:
        metrics["cli.spawn_s"] = sum(r["wall_s"] - r["child_wall_s"] for r in recs.values()
                                     if "child_wall_s" in r) / len(ops)
    # Self times must add up to the op's wall time: never more, and less only
    # by the tracing overhead.  That is the op's own traced-untraced gap when
    # it was replayed, and at least the median gap of the replayed ops.
    overhead = {i: abs(t_walls[i] - u_walls[i]) for i in common}
    typical = statistics.median(overhead.values())
    unattributed, broken = [], 0
    for i, rec in recs.items():
        wall = rec["child_wall_s"] if cli else rec["wall_s"]
        if cli and "child_wall_s" not in rec:
            continue  # killed at its deadline: the child wrote no spans
        covered = spanlib.attributed(traced["spans"].get(i, []))
        gap = wall - covered
        unattributed.append(gap)
        allowance = max(overhead.get(i, 0.0), typical, 0.01 * wall + 0.002)
        if gap < -1e-3 or gap > allowance:
            broken += 1
            print(f"  trace check: op {i} wall {wall:.4f}s, span self times {covered:.4f}s, "
                  f"allowance {allowance:.4f}s", file=sys.stderr)
    metrics["trace.unattributed_s"] = statistics.fmean(unattributed) if unattributed else 0.0
    lines = [f"  trace overhead: {len(common)} replayed ops, traced {t_sum:.3f}s vs untraced "
             f"{u_sum:.3f}s ({100 * metrics['trace.overhead_ratio']:+.2f}%), p50 "
             f"{metrics['trace.overhead_p50_s']:+.4f}s",
             f"  self-time check: {len(unattributed) - broken} of {len(recs)} ops add up "
             f"to their wall time within the overhead"]
    return metrics, lines, broken


def describe(op: dict) -> str:
    if op["kind"] == "cli":
        return " ".join(op["argv"])
    return op["kind"] + " " + " ".join(
        f"{k}={op[k]:.4g}" if isinstance(op[k], float) else f"{k}={op[k]}"
        for k in ("problem", "F", "a", "n", "k"))


def environment(seed: int) -> str:
    import numpy
    return (f"env: python {platform.python_version()}, numpy {numpy.__version__}, "
            f"scipy {metadata.version('scipy')}, nproc {os.cpu_count()}, "
            f"blas/omp threads {THREADS}, seed {seed}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Before numpy loads: the thread pools size themselves at import.
    os.environ.update({var: THREADS for var in THREAD_VARS})
    if not os.path.isfile(os.path.join(SRC, "starklayer", "__init__.py")):
        print(f"error: no starklayer package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    cycles = workloads.cycles_for(args.workload, args.seconds)
    ops = workloads.op_list(args.workload, args.seed, cycles)
    print(environment(args.seed))
    print(f"workload {args.workload}: closed loop, 1 client; cycle 0 and {cycles} seeded "
          f"cycle(s) for --seconds {args.seconds:g}: {len(ops)} ops")

    if args.trace:
        measured = run_ops(args.workload, ops, traced=True)
        replay = run_ops(args.workload, ops[::2], traced=False)
        statuses = classify_all(ops, measured) + classify_all(ops, replay)
        metrics, lines, broken = trace_metrics(ops, measured, replay)
        units = spanlib.PER_LAYER_UNITS
        with open(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({str(k): v for k, v in measured["spans"].items()}, fh)
        lines += [f"  {k:<42} {metrics[k]:>14.6g} {units[k]}" for k in units]
    else:
        t0 = time.perf_counter()
        setup = measure_setup(SETUP_REPEATS)
        t1 = time.perf_counter()
        measured = run_ops(args.workload, ops, traced=False, reruns=True)
        t2 = time.perf_counter()
        statuses = classify_all(ops, measured)
        print(f"phases: set-up {t1 - t0:.1f}s, ops {t2 - t1:.1f}s, "
              f"checks {time.perf_counter() - t2:.1f}s")
        rss_note = ("max over CLI children" if args.workload == "cli_session"
                    else "worker process")
        metrics, lines = end_to_end(measured, statuses, setup, rss_note)
        units = END_TO_END_UNITS
        broken = 0

    counts = summarise(statuses)
    attempted = len(measured["results"])
    n_ok = sum(1 for s, _ in statuses[:attempted] if s == "ok")
    print(f"ops: {attempted} attempted, {n_ok} ok; all passes: "
          + ", ".join(f"{k} {v}" for k, v in counts.items()))
    by_id = {op["id"]: op for op in ops}
    for (status, detail), rec in zip(statuses, measured["results"]):
        op = by_id[rec["id"]]
        print(f"  op {rec['id']:>3} {rec['wall_s']:9.4f}s of {op['deadline_s']:g}s "
              f"{status:<18} {describe(op)}" + (f"  [{detail}]" if detail else ""))
    for line in lines:
        print(line)
    result = {
        "correct": counts["wrong"] == 0 and broken == 0,
        "attempted": attempted,
        "failed": attempted - n_ok,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
