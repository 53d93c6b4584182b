"""Tests of the benchmark itself: ``python -m pytest perfbench -q``.

Covers the seeded generator, the self-time arithmetic of the span tree, and
that every correctness check rejects an answer perturbed by 1e-3.
"""

import io
import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from run import tail, trace_metrics  # noqa: E402
from starklayer import cli  # noqa: E402
from starklayer import certify as certify_mod  # noqa: E402
from starklayer import transverse  # noqa: E402
from starklayer.transverse import BoundaryType, WaveguideParams  # noqa: E402

PERTURB = 1e-3


# Generator -------------------------------------------------------------------

CYCLES = 12


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_ops(name):
    ops = workloads.op_list(name, 7, CYCLES)
    assert ops == workloads.op_list(name, 7, CYCLES)
    assert ops != workloads.op_list(name, 8, CYCLES)
    assert [op["id"] for op in ops] == list(range(len(ops)))
    assert all(op["deadline_s"] > 0 for op in ops)
    json.dumps(ops)  # ops, results and spans travel as JSON


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_run_length_depends_on_seconds_only(name):
    """Two runs of one --seconds hold the same number of ops, whatever the seed."""
    fixed, cycle = workloads.TIMING_S[name]
    for seconds in (1.0, fixed + cycle, fixed + 3.2 * cycle):
        cycles = workloads.cycles_for(name, seconds)
        sizes = {len(workloads.op_list(name, seed, cycles)) for seed in range(5)}
        assert len(sizes) == 1
    assert workloads.cycles_for(name, 1.0) == 1
    assert workloads.cycles_for(name, fixed + 3.2 * cycle) == 3


def test_fixed_cases_form_cycle_zero():
    for seed in (0, 1, 99):
        cli_ops = workloads.op_list("cli_session", seed, 1)
        fixed = [op["argv"] for op in cli_ops if op["cycle"] == 0]
        assert fixed[:6] == workloads.README_COMMANDS
        assert fixed[6][0] == "certify"
        fd = workloads.op_list("fd2d_window", seed, 1)
        assert [{k: op[k] for k in ("problem", "F", "a", "n", "k")}
                for op in fd if op["cycle"] == 0] == workloads.FD2D_FIXED


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_cycles_share_one_schedule(name):
    """Seeded cycles differ only in the drawn values, never in their strata."""
    cycles = {}
    for op in workloads.op_list(name, 5, CYCLES):
        if op["cycle"] > 0:
            cycles.setdefault(op["cycle"], []).append(op)

    def shape(op):
        if op["kind"] == "cli":
            return (op["argv"][0], op["argv"][4], op["argv"][5])
        return (op["problem"], op["n"], op["k"], op["F"])
    shapes = {tuple(shape(op) for op in cycle) for cycle in cycles.values()}
    assert len(cycles) == CYCLES and len(shapes) == 1


def test_drawn_values_stay_in_their_ranges():
    for op in workloads.op_list("fd2d_window", 3, CYCLES):
        assert 1.0 <= op["a"] <= 5.0 and op["n"] in (64, 128) and op["k"] in (1, 2, 3)
        assert op["F"] in (0.0, 0.1, 1.0, 10.0) and op["d"] == math.pi
    for op in workloads.op_list("cli_session", 3, CYCLES):
        argv = op["argv"]
        opts = dict(zip(argv[1::2], argv[2::2]))
        F = float(opts["--F"])
        if argv[0] == "levels":
            assert F == 0.0 or 1e-2 <= F <= 1e4
            assert opts["--count"] in ("3", "5", "20")
        if argv[0] == "bracket":
            assert 0.5 <= float(opts["--a"]) <= 100.0
        if argv[0] == "threshold":
            assert 1 <= int(opts["--i"]) <= 30
        if argv[0] == "certify":
            assert F == 0.0 or 1e-2 <= F <= 1e2
            assert 0.05 <= float(opts["--a"]) <= 20.0


# Spans -----------------------------------------------------------------------

def _span(name, start, end, parent):
    return [name, start, end, parent, None, None]


def test_self_time_of_a_synthetic_tree():
    tree = [
        _span("op", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.x", 1.5, 2.0, 1),
        _span("a.y", 3.0, 3.5, 1),
        _span("b", 5.0, 9.0, 0),
        _span("b.x", 5.0, 9.0, 4),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 0.5, 0.5, 0.0, 4.0])
    assert spans.attributed(tree) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    tree = [_span("p", 0.0, 4.0, -1), _span("c1", 1.0, 3.0, 0), _span("c2", 2.0, 3.5, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(1.5)


def test_aggregate_per_op_counts_and_ratios():
    op = [
        ["certify.certify", 0.0, 4.0, -1, None, {}],
        ["certify.q_functional", 0.5, 1.5, 0, None, {}],
        ["certify.q_functional", 2.0, 3.0, 0, None, {}],
        ["specfun.integrate", 2.1, 2.9, 2, None, {"nodes": 30}],
        ["specfun.bessel_zero", 3.1, 3.2, 0, None, {"hit": True}],
        ["specfun.bessel_zero", 3.2, 3.3, 0, None, {"hit": False}],
    ]
    m = spans.aggregate({0: op, 1: []}, 2)
    assert m["certify.q_functional.calls"] == 1.0
    assert m["certify.halvings"] == 0.5
    assert m["certify.nodes_per_certificate"] == 30
    assert m["specfun.bessel_zero.hit_ratio"] == 0.5
    assert m["certify.certify.self_s"] == pytest.approx((4.0 - 2.0 - 0.2) / 2)


def test_tail_has_ten_samples_beyond_it():
    values = list(range(1, 31))
    value, pct = tail(values)
    assert sum(v > value for v in values) == 10 and pct == pytest.approx(200 / 3)
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def _outcome(walls, spans_by_op, **extra):
    results = [{"id": i, "wall_s": w, **{k: v[i] for k, v in extra.items()}}
               for i, w in enumerate(walls)]
    return {"results": results, "spans": spans_by_op}


def test_self_time_check_counts_unattributed_ops():
    """An op whose spans leave more than the tracing overhead uncovered is counted."""
    ops = [{"id": i} for i in range(3)]
    covered = {0: [_span("fd2d.lowest_eigs", 0.0, 1.0, -1)],
               1: [_span("fd2d.lowest_eigs", 0.0, 1.0, -1)],
               2: [_span("fd2d.lowest_eigs", 0.0, 0.5, -1)]}
    replay = _outcome([1.0, 1.0, 1.0], {})
    _, _, broken = trace_metrics(ops, _outcome([1.0, 1.001, 1.0], covered), replay)
    assert broken == 1  # op 2: 0.5 s of 1 s outside every span
    covered[2] = [_span("fd2d.lowest_eigs", 0.0, 1.0, -1)]
    metrics, _, broken = trace_metrics(ops, _outcome([1.0, 1.001, 1.0], covered), replay)
    assert broken == 0 and metrics["trace.unattributed_s"] == pytest.approx(0.001 / 3)
    covered[2] = [_span("fd2d.lowest_eigs", 0.0, 1.1, -1)]
    assert trace_metrics(ops, _outcome([1.0, 1.001, 1.0], covered), replay)[2] == 1


def test_self_time_check_uses_the_cli_child_wall_time():
    ops = [{"id": 0}, {"id": 1}]
    child = {0: [_span("cli.import", 0.0, 0.8, -1), _span("cli.run", 0.8, 1.0, -1)],
             1: [_span("cli.import", 0.0, 0.8, -1)]}
    traced = _outcome([1.2, 1.2], child, child_wall_s=[1.0, 1.0])
    metrics, _, broken = trace_metrics(ops, traced, _outcome([1.2, 1.2], {}))
    assert broken == 1  # op 1: the child ran 0.2 s outside its spans
    assert metrics["cli.spawn_s"] == pytest.approx(0.2)


# Checks reject perturbed answers ---------------------------------------------

def _cli(argv):
    buf = io.StringIO()
    config = cli.config_from_args(cli._build_parser().parse_args(argv))
    assert cli.run(config, out=buf) == 0
    return buf.getvalue()


def _bump(x):
    return x * (1.0 + PERTURB)


@pytest.mark.parametrize("F,d,bc", [(0.0, math.pi, "dirichlet"), (1.0, 1.0, "neumann")])
def test_levels_check(F, d, bc):
    params = WaveguideParams(F=F, d=d)
    values = [lvl.lam for lvl in transverse.levels(params, checks._BC[bc], 3)]
    checks.check_levels(F, d, bc, 3, values)
    for i in range(3):
        bad = list(values)
        bad[i] = _bump(bad[i])
        with pytest.raises(checks.WrongAnswer):
            checks.check_levels(F, d, bc, 3, bad)


def test_bracket_check():
    doc = json.loads(_cli(["bracket", "--F", "0.5", "--d", "1", "--a", "4", "--format", "json"]))
    checks.check_bracket(0.5, 1.0, 4.0, doc)
    assert doc["estimates"]
    for i in range(len(doc["estimates"])):
        bad = json.loads(json.dumps(doc))
        bad["estimates"][i]["lam"] = _bump(bad["estimates"][i]["lam"])
        with pytest.raises(checks.WrongAnswer):
            checks.check_bracket(0.5, 1.0, 4.0, bad)
    for key in ("lower", "upper"):
        bad = json.loads(json.dumps(doc))
        bad["window"][key] = _bump(bad["window"][key])
        with pytest.raises(checks.WrongAnswer):
            checks.check_bracket(0.5, 1.0, 4.0, bad)
    bad = json.loads(json.dumps(doc))
    bad["count_below_edge"] += 1
    with pytest.raises(checks.WrongAnswer):
        checks.check_bracket(0.5, 1.0, 4.0, bad)


def test_threshold_check():
    rows = [(int(i), float(v)) for i, v in
            (line.split(",") for line in _cli(["threshold", "--F", "0.3", "--d", "1",
                                                "--i", "4"]).splitlines()[1:])]
    checks.check_threshold(0.3, 1.0, 4, rows)
    for j in range(4):
        bad = list(rows)
        bad[j] = (bad[j][0], _bump(bad[j][1]))
        with pytest.raises(checks.WrongAnswer):
            checks.check_threshold(0.3, 1.0, 4, bad)


def test_figure_check():
    out = _cli(["figure", "--F", "0.01", "--d", "1", "--a-min", "0.5", "--a-max", "10",
                "--steps", "5"]).splitlines()
    header = out[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in out[1:]]
    checks.check_figure(0.01, 1.0, 0.5, 10.0, 5, 3, header, rows)
    for col in range(1, 5):
        bad = [list(r) for r in rows]
        bad[2][col] = _bump(bad[2][col])
        with pytest.raises(checks.WrongAnswer):
            checks.check_figure(0.01, 1.0, 0.5, 10.0, 5, 3, header, bad)


def test_certificate_check():
    cert = certify_mod.certify(WaveguideParams(F=0.0, d=1.0, a=1.0))
    fields = [cert.q_value, cert.coeff_A, cert.coeff_B, cert.coeff_C,
              cert.spec.tau, cert.spec.eps]
    checks.check_certificate(*fields)
    for i in range(len(fields)):
        bad = list(fields)
        bad[i] = _bump(bad[i])
        with pytest.raises(checks.WrongAnswer):
            checks.check_certificate(*bad)


@pytest.mark.parametrize("problem,k", [("window", 2), ("inner-dirichlet", 1), ("ground", 1)])
def test_fd2d_check(problem, k):
    op = {"kind": "fd2d", "problem": problem, "F": 0.1, "d": math.pi, "a": 2.0, "n": 64, "k": k}
    import worker
    answer = worker.run_fd2d(op)
    checks.check_fd2d(op, answer)
    for i in range(k):
        bad = json.loads(json.dumps(answer))
        bad["values"][i] = _bump(bad["values"][i])
        with pytest.raises(checks.WrongAnswer):
            checks.check_fd2d(op, bad)
    if problem == "ground":
        bad = json.loads(json.dumps(answer))
        bad["error_estimates"][0] = _bump(bad["error_estimates"][0])
        with pytest.raises(checks.WrongAnswer):
            checks.check_fd2d(op, bad)


def test_known_failures_are_predicted():
    assert checks.threshold_fails_at_seed(24) and not checks.threshold_fails_at_seed(23)
    assert checks.bracket_fails_at_seed(0.0, math.pi, 100.0)
    assert not checks.bracket_fails_at_seed(0.0, math.pi, 80.0)
    op = {"kind": "cli", "argv": ["threshold", "--F", "0", "--d", "1", "--i", "25"]}
    assert checks.classify(op, {"error": "UnsupportedOrderError"})[0] == "known_failure"
    assert checks.classify(op, {"error": "SolverError"})[0] == "unexpected_failure"
    assert checks.classify(op, {"error": "TypeError"})[0] == "wrong"


def test_oracle_reference_matches_exact_levels_at_high_field():
    exact = [lvl.lam for lvl in transverse.levels(
        WaveguideParams(F=1e3, d=1.0), BoundaryType.DIRICHLET_DIRICHLET, 20)]
    ref = checks.ref_levels(1e3, 1.0, "dirichlet", 20)
    assert max(abs(e - r) / r for e, r in zip(exact, ref)) < checks.LEVEL_REL / 10


def test_changed_rerun_is_wrong():
    from run import classify_all
    op = {"id": 0, "cycle": 0, "kind": "cli", "argv": workloads.README_COMMANDS[0]}
    first = {"id": 0, "error": None, "stdout": _cli(op["argv"]), "files": {}}
    outcome = {"results": [first], "repeats": [dict(first)]}
    assert classify_all([op], outcome)[0][0] == "ok"
    outcome["repeats"][0]["stdout"] = first["stdout"] + "\n"
    assert classify_all([op], outcome)[0][0] == "wrong"


def test_traced_worker_records_each_factorisation():
    """Traces one op in a child process, so the wrappers never touch this one."""
    import subprocess
    op = {"id": 0, "cycle": 0, "kind": "fd2d", "problem": "ground", "F": 0.0,
          "d": math.pi, "a": 2.0, "n": 16, "k": 1, "deadline_s": 10.0}
    code = ("import json, sys, spans, worker\n"
            "tracer = spans.Tracer()\n"
            "spans.install(tracer)\n"
            "results, _ = worker.run_ops([json.loads(sys.argv[1])], tracer)\n"
            "print(json.dumps({'results': results,"
            " 'spans': spans.finish_spans(tracer.ops[0])}, default=lambda o: o.item()))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [HERE, os.path.join(os.path.dirname(HERE), "src")]))
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(op)], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    doc = json.loads(proc.stdout)
    assert doc["results"][0]["error"] is None
    op_spans = doc["spans"]
    names = [s[spans.NAME] for s in op_spans]
    assert names.count("fd2d.splu") == 2 and names.count("fd2d.assemble") == 2
    splus = [s for s in op_spans if s[spans.NAME] == "fd2d.splu"]
    assert all(s[spans.ATTRS]["solves"] > 0 for s in splus)
    assert {op_spans[s[spans.PARENT]][spans.NAME] for s in splus} == {"fd2d.lowest_eigs"}
    assert spans.attributed(op_spans) <= doc["results"][0]["wall_s"]
