"""The benchmark's fixed ops pass their checks with the span tracer installed.

``perfbench/`` is not on the test path, so nothing else here runs an op
through its wrappers.  One fresh interpreter installs ``spans.install`` (so
every name in ``spans.WRAPPED`` must still resolve), then runs cycle 0 of
both workloads: the ``cli_session`` commands through ``cli.main`` and the
``fd2d_window`` solves through ``worker.run_fd2d``.  Each outcome goes to
``checks.classify``, as the benchmark classifies it.
"""

import json
import os
import subprocess
import sys

from starklayer import cli

_TRACED_OPS = """\
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import checks, run, spans, worker, workloads
from starklayer import cli

tracer = spans.Tracer()
spans.install(tracer)
outcomes = []
for workload in workloads.WORKLOADS:
    for op in workloads.op_list(workload, 101, 1):
        if op["cycle"]:
            continue
        tracer.begin_op((workload, op["id"]))
        if op["kind"] == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(op["argv"])
            error, message = run.cli_error({"killed": False, "exit": code,
                                            "stderr": err.getvalue()})
            result = {"error": error, "message": message, "stdout": out.getvalue(),
                      "files": {}}
            if "--out" in op["argv"] and error is None:
                name = op["argv"][op["argv"].index("--out") + 1]
                with open(name, encoding="utf-8") as fh:
                    result["files"][name] = fh.read()
        else:
            try:
                result = {"error": None, "answer": worker.run_fd2d(op)}
            except Exception as exc:
                result = {"error": type(exc).__name__, "message": str(exc)}
        status, detail = checks.classify(op, result)
        outcomes.append([workload, op["id"], status, detail,
                         len(tracer.ops[(workload, op["id"])])])
print(json.dumps(outcomes))
"""


def test_cycle_zero_ops_pass_their_checks_under_the_tracer(tmp_path):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    perfbench = os.path.join(os.path.dirname(src), "perfbench")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    # The working directory is where `figure --out` writes.
    proc = subprocess.run([sys.executable, "-c", _TRACED_OPS, perfbench], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    outcomes = json.loads(proc.stdout)
    assert {w for w, *_ in outcomes} == {"cli_session", "fd2d_window"}
    for workload, op_id, status, detail, n_spans in outcomes:
        assert status in ("ok", "known_failure"), (workload, op_id, status, detail)
        assert n_spans > 0, (workload, op_id, "no span recorded")
