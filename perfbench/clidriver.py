"""Traced stand-in for ``python -m starklayer.cli``.

Usage: ``python clidriver.py SPANS_PATH ARGV...``.  Imports starklayer (span
``cli.import``), installs the span wrappers, runs ``cli.main(ARGV)`` (span
``cli.run``), and exits with the CLI's status.  It writes
``{"wall": [start, end], "spans": [...]}`` to SPANS_PATH, where ``wall`` is
its own measured interval, from its first statement to the CLI's return.
stdout carries exactly the CLI's output.
"""

import time

t_start = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import spans as spanlib  # noqa: E402

tracer = spanlib.Tracer()
tracer.begin_op(0)
t0 = time.perf_counter()
import starklayer  # noqa: E402
from starklayer import cli  # noqa: E402
tracer.add("cli.import", t0, time.perf_counter(), {"file": starklayer.__file__})
spanlib.install(tracer)
idx = tracer.open("cli.run")
try:
    code = cli.main(sys.argv[2:])
finally:
    tracer.close(idx)
    t_end = time.perf_counter()
    sys.stdout.flush()
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump({"wall": [t_start, t_end], "spans": spanlib.finish_spans(tracer.ops[0])},
                  fh, default=lambda o: o.item())
sys.exit(code)
