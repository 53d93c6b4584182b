"""CLI contract: deterministic output, round-trip config, exit codes."""

import io
import json
import os
import subprocess
import sys

import pytest

from starklayer import cli, fd2d, specfun, transverse

PI_STR = "3.141592653589793"


def run_capture(argv):
    buf = io.StringIO()
    parser_args = cli._build_parser().parse_args(argv)
    config = cli.config_from_args(parser_args)
    code = cli.run(config, out=buf)
    return code, buf.getvalue()


def test_levels_field_free_csv():
    code, text = run_capture(
        ["levels", "--F", "0", "--d", PI_STR, "--bc", "dirichlet", "--count", "3"])
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "n,lambda"
    assert lines[1:] == ["1,1.0", "2,4.0", "3,9.0"]


def test_levels_fd_method():
    code, text = run_capture(
        ["levels", "--F", "0", "--d", PI_STR, "--bc", "neumann",
         "--count", "1", "--method", "fd", "--nodes", "2000"])
    assert code == 0
    val = float(text.strip().splitlines()[1].split(",")[1])
    assert val == pytest.approx(0.25, rel=1e-6)


def test_levels_asymptotic_strong_reports_both_conventions():
    code, text = run_capture(
        ["levels", "--F", "10000", "--d", "1", "--bc", "dirichlet",
         "--count", "1", "--method", "asymptotic-strong"])
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "n,lambda_stated_convention,lambda_airy_zero,ratio"
    _, stated, airy, ratio = lines[1].split(",")
    assert float(ratio) == pytest.approx(float(stated) / float(airy), rel=1e-12)
    assert float(airy) == pytest.approx(2.338107410459767 * 1e4 ** (2.0 / 3.0), rel=1e-9)


def test_threshold_value():
    code, text = run_capture(["threshold", "--F", "0", "--d", PI_STR, "--i", "1"])
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "i,a_star"
    assert float(lines[1].split(",")[1]) == pytest.approx(2.7768533661794926, abs=1e-10)


def test_certify_json_valid():
    code, text = run_capture(
        ["certify", "--F", "1", "--d", "1", "--a", "1", "--format", "json"])
    assert code == 0
    doc = json.loads(text)
    assert doc["q_value"] < 0.0
    assert doc["valid"] is True
    assert doc["coefficients"]["A"] > 0.0 and doc["coefficients"]["C"] > 0.0
    assert "tolerances" in doc and "level_rel" in doc["tolerances"]


@pytest.mark.parametrize("F, d", [("10000", PI_STR), ("150000", "1"), ("1e-06", "1")])
def test_certify_holds_at_both_ends_of_the_field_range(F, d):
    # The quadrature certificate exited 1 on all three: CertificateError at
    # strong field, QuadratureError at weak field.
    code, text = run_capture(["certify", "--F", F, "--d", d, "--a", "1", "--format", "json"])
    assert code == 0
    doc = json.loads(text)
    assert doc["valid"] is True and doc["q_value"] < 0.0
    assert doc["method"] == "closed-form"
    assert "certify_quadrature_rel" not in doc["tolerances"]


def test_json_round_trips_config():
    argv = ["bracket", "--F", "0", "--d", PI_STR, "--a", "10", "--format", "json"]
    args = cli._build_parser().parse_args(argv)
    config = cli.config_from_args(args)
    buf = io.StringIO()
    assert cli.run(config, out=buf) == 0
    doc = json.loads(buf.getvalue())
    assert doc["config"]["command"] == config.command
    assert doc["config"]["F"] == config.F
    assert doc["config"]["d"] == config.d
    assert doc["config"]["a"] == config.a
    assert doc["config"]["options"] == {
        k: v for k, v in config.options.items()}
    assert doc["count_below_edge"] >= 3


def test_bracket_csv_rows():
    code, text = run_capture(["bracket", "--F", "0", "--d", PI_STR, "--a", "10"])
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "n,m,k,lambda,multiplicity"
    first = lines[1].split(",")
    assert first[:3] == ["1", "0", "1"]
    assert float(first[3]) == pytest.approx(0.30783185962946785, rel=1e-12)


def test_figure_header_and_threshold_proximity():
    code, text = run_capture(
        ["figure", "--F", "0.01", "--d", "1", "--a-min", "0.5", "--a-max", "10",
         "--steps", "200"])
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "a,curve1,curve2,curve3,edge"
    assert len(lines) == 201
    rows = [list(map(float, ln.split(","))) for ln in lines[1:]]
    from starklayer import bracket
    from starklayer.transverse import WaveguideParams
    a_star = bracket.sufficient_radius(WaveguideParams(F=0.01, d=1.0), 1)
    gaps = [abs(r[1] - r[4]) for r in rows]
    nearest = min(range(len(rows)), key=lambda i: abs(rows[i][0] - a_star))
    assert min(gaps) == pytest.approx(gaps[nearest], abs=1e-12)


def test_solve2d_window_below_edge_flag():
    code, text = run_capture(
        ["solve2d", "--F", "0", "--d", PI_STR, "--a", "5", "--problem", "window",
         "--nr", "48", "--nz", "48"])
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "k,lambda,residual,below_edge"
    parts = lines[1].split(",")
    assert parts[3] == "true"
    assert float(parts[1]) < 1.0


@pytest.mark.parametrize("argv, message", [
    (["solve2d", "--F", "0", "--d", "1", "--a", "1e200", "--problem", "window"],
     "error: grid spacing h_r=1.25e+199 outside [1e-154, 1e154]\n"),
    (["solve2d", "--F", "0", "--d", "1", "--a", "1e-200", "--problem", "window"],
     "error: grid spacing h_r=1.25e-201 outside [1e-154, 1e154]\n"),
], ids=["huge", "tiny"])
def test_solve2d_refuses_a_grid_spacing_out_of_range(capsys, argv, message):
    # h_r^2 overflows (an OverflowError traceback) or 1/h_r^2 does (a LAPACK
    # failure): the range is refused up front, by name.
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


_FD_LEVELS = ["levels", "--F", "1", "--d", "1", "--bc", "dirichlet", "--method", "fd"]
_WINDOW = ["solve2d", "--F", "1", "--d", "1", "--a", "1", "--problem", "window"]


@pytest.mark.parametrize("argv, message", [
    (_FD_LEVELS + ["--nodes", "1000001"], "error: nodes must be in 100..1000000, got 1000001\n"),
    (_FD_LEVELS + ["--nodes", "100", "--count", "100"],
     "error: count 100 exceeds the 99 unknowns of 100 nodes\n"),
    (_WINDOW + ["--nr", "2049"], "error: grid needs 8 <= nr, nz <= 2048, got nr=2049, nz=64\n"),
    (_WINDOW + ["--nz", "2049"], "error: grid needs 8 <= nr, nz <= 2048, got nr=64, nz=2049\n"),
], ids=["nodes", "count", "nr", "nz"])
def test_sizes_past_their_caps_are_refused(capsys, argv, message):
    # --nodes 1e8 filled memory and --nr 1e5 would ask for 80 GB of dense
    # factors; a count past the unknowns surfaced scipy's own message.  Each
    # is refused at its cap + 1, by name, before any array of that size.
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


@pytest.mark.parametrize("argv", [
    ["bracket", "--F", "0", "--d", "1", "--a", "1", "--below", "nan"],
    ["bracket", "--F", "0", "--d", "1", "--a", "1", "--below", "inf"],
    ["bracket", "--F", "0", "--d", "1", "--a", "0", "--below=-inf"],
    ["figure", "--F", "0", "--d", "1", "--a-min", "1", "--a-max", "inf", "--steps", "3"],
    ["figure", "--F", "0", "--d", "1", "--a-min", "1", "--a-max", "nan", "--steps", "3"],
], ids=["bracket-nan", "bracket-inf", "bracket-a0", "figure-inf", "figure-nan"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_non_finite_threshold_or_radius_is_validation_error(capsys, argv, fmt):
    # Accepted, a non-finite value prints rows of nan and JSON with the invalid
    # literal NaN.
    assert cli.main(argv + ["--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["bracket", "--F", "0", "--d", "1", "--a", "10", "--n-max", "3"],
    ["bracket", "--F", "0", "--d", "1", "--a", "10", "--m-max", "3"],
    ["bracket", "--F", "0", "--d", "1", "--a", "10", "--k-max", "3"],
    ["certify", "--F", "0", "--d", "1", "--a", "1", "--b", "3"],
    ["solve2d", "--F", "0", "--d", "1", "--a", "1", "--problem", "window", "--r-max", "8"],
], ids=["n-max", "m-max", "k-max", "b", "r-max"])
def test_removed_options_are_refused(capsys, argv):
    # The index caps cut the bracket list short, and the plateau and
    # truncation radii are fixed at 2a and 8a (a for the inner problems).
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in captured.err


def test_byte_identical_reruns():
    argv = ["figure", "--F", "100", "--d", "1", "--a-min", "0.1", "--a-max", "3",
            "--steps", "40"]
    out1 = run_capture(argv)
    out2 = run_capture(argv)
    assert out1 == out2
    argv_json = ["certify", "--F", "0.1", "--d", "1", "--a", "0.5",
                 "--format", "json"]
    assert run_capture(argv_json) == run_capture(argv_json)


def test_exit_code_validation_error():
    assert cli.main(["levels", "--F", "-1", "--d", "1", "--bc", "dirichlet"]) == 2


@pytest.mark.parametrize("count", [0, 101])
@pytest.mark.parametrize("method", ["exact", "fd", "asymptotic-weak", "asymptotic-strong"])
def test_levels_count_outside_range_is_validation_error(capsys, method, count):
    assert cli.main(["levels", "--F", "1", "--d", "1", "--bc", "dirichlet",
                     "--count", str(count), "--method", method]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: count must be in 1..100\n"


def test_exit_code_solver_failure(capsys):
    code = cli.main(["threshold", "--F", "0", "--d", PI_STR, "--i", "2000"])
    assert code == 1
    err = capsys.readouterr().err
    report = json.loads(err)
    assert report["error"] == "UnsupportedOrderError"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("a", ["2e154", "1e300"])
def test_certify_infinite_q_is_solver_failure(capsys, fmt, a):
    # a^2 overflows: the certificate would read Q = -inf (and, in JSON, the
    # invalid literal -Infinity).
    assert cli.main(["certify", "--F", "1", "--d", "1", "--a", a, "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "CertificateError"


def test_certify_underflowing_tail_rate_is_solver_failure(capsys):
    # The gain C^2/(4B) scales as a^4: at a = 1e-81 it is subnormal and
    # gain/(2A) rounds to 0.  A valid input, so exit 1, not 2.
    assert cli.main(["certify", "--F", "1", "--d", "1", "--a", "1e-81"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    report = json.loads(captured.err)
    assert report["error"] == "CertificateError"
    assert report["message"].startswith("tail rate underflows: gain/(2A)")


@pytest.mark.parametrize("d", ["1e-103", "1e106"])
@pytest.mark.parametrize("F", ["0", "1"])
def test_layer_width_outside_range_is_validation_error(capsys, F, d):
    assert cli.main(["levels", "--F", F, "--d", d, "--bc", "dirichlet"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: layer width d must be in [1e-100, 1e+100]\n"


def test_exit_code_bad_flag():
    assert cli.main(["levels", "--F", "1", "--d", "1", "--bc", "dirichlet",
                     "--no-such-flag"]) == 2


def test_output_file(tmp_path):
    target = tmp_path / "levels.csv"
    code = cli.main(["levels", "--F", "0", "--d", PI_STR, "--bc", "dirichlet",
                     "--count", "2", "--out", str(target)])
    assert code == 0
    assert target.read_text().splitlines()[1] == "1,1.0"


@pytest.mark.parametrize("argv, code", [
    (["certify", "--F", "1", "--d", "1", "--a", "0"], 2),
    (["bracket", "--F", "0", "--d", PI_STR, "--a", "100"], 1),
])
def test_output_file_untouched_on_failure(tmp_path, argv, code):
    fresh = tmp_path / "fresh.csv"
    assert cli.main(argv + ["--out", str(fresh)]) == code
    assert not fresh.exists()
    kept = tmp_path / "kept.csv"
    kept.write_text("previous\n")
    assert cli.main(argv + ["--out", str(kept)]) == code
    assert kept.read_text() == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.csv"]


@pytest.mark.parametrize("target, reason", [
    ("missing/x.csv", "No such file or directory"),
    ("dir", "Is a directory"),
], ids=["no-parent", "directory"])
def test_unwritable_output_is_validation_error(tmp_path, capsys, target, reason):
    # Opening or renaming the output raised a traceback with exit 1 and no report.
    (tmp_path / "dir").mkdir()
    out = tmp_path / target
    assert cli.main(["threshold", "--F", "0", "--d", "1", "--i", "2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write --out {out}: {reason}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["dir"]
    assert not any((tmp_path / "dir").iterdir())


def test_directory_output_is_refused_before_computing(tmp_path, monkeypatch, capsys):
    # The directory used to be refused only by the final rename, after the run.
    calls = []
    monkeypatch.setattr(cli, "run", lambda *args, **kwargs: calls.append(args) or 0)
    argv = ["certify", "--F", "1", "--d", "1", "--a", "1", "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    assert calls == []
    assert capsys.readouterr().err == f"error: cannot write --out {tmp_path}: Is a directory\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.filterwarnings("error")
def test_figure_refuses_overflowing_curves(capsys):
    # (x/a)^2 overflows at a = 1e-200: the rows read inf, after a numpy warning.
    argv = ["figure", "--F", "0", "--d", "1", "--a-min", "1e-200", "--a-max", "1e-199",
            "--steps", "2"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: a_min=1e-200 is too small: the curves overflow\n"


def test_threshold_past_twenty_three_curves():
    code, text = run_capture(["threshold", "--F", "0", "--d", PI_STR, "--i", "30"])
    assert code == 0
    radii = [float(line.split(",")[1]) for line in text.strip().splitlines()[1:]]
    assert len(radii) == 30
    assert all(a < b for a, b in zip(radii, radii[1:]))


def test_solve2d_default_grid_three_window_levels(capsys):
    code = cli.main(["solve2d", "--F", "1", "--d", PI_STR, "--a", "3",
                     "--problem", "window", "--k", "3"])
    assert code == 0
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
    values = [float(r[1]) for r in rows]
    assert len(values) == 3
    assert values == sorted(values)
    assert all(float(r[2]) <= fd2d.EIG_RESIDUAL_TOL for r in rows)


def test_figure_command_writes_csv():
    code, text = run_capture(["figure", "--F", "1", "--d", "1", "--a-min", "1",
                              "--a-max", "2", "--steps", "3"])
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "a,curve1,curve2,curve3,edge"
    assert len(lines) == 4


def test_threshold_merges_zeros_once(monkeypatch):
    from starklayer import bracket
    from starklayer.transverse import WaveguideParams

    merge = bracket.sorted_bessel_zeros
    merges = []

    def counted(count):
        merges.append(count)
        return merge(count)

    monkeypatch.setattr(bracket, "sorted_bessel_zeros", counted)
    code, text = run_capture(["threshold", "--F", "0", "--d", PI_STR, "--i", "40"])
    assert code == 0
    assert merges == [40]
    monkeypatch.setattr(bracket, "sorted_bessel_zeros", merge)
    params = WaveguideParams(F=0.0, d=float(PI_STR))
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    assert [int(j) for j, _ in rows] == list(range(1, 41))
    assert [float(v) for _, v in rows] == [bracket.sufficient_radius(params, j)
                                           for j in range(1, 41)]


def test_bracket_threshold_and_figure_read_no_single_zero(monkeypatch):
    # Each takes its zeros from the one merged list, so none makes a scalar
    # bessel_zero call, at the widest bracket and the longest threshold list.
    def refused(m, k):
        raise AssertionError(f"bessel_zero({m}, {k}) called")

    monkeypatch.setattr(specfun, "bessel_zero", refused)
    figure = [argv for argv in _readme_commands() if argv[0] == "figure"]
    for argv in [["bracket", "--F", "0", "--d", PI_STR, "--a", "82", "--format", "json"],
                 ["threshold", "--F", "0", "--d", PI_STR, "--i", "638"]] + figure:
        code, text = run_capture(argv)
        assert code == 0, argv
        assert text


# Runs one entry point in a fresh interpreter, then lists the scipy modules it
# loaded: every command is its own process, so its imports are its start-up.
_SCIPY_PROBE = """\
import contextlib, io, sys
if sys.argv[1:]:
    from starklayer import cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(sys.argv[1:]) == 0
else:
    import starklayer
print(*sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""

_SUBPACKAGES = {"scipy.special", "scipy.linalg", "scipy.sparse", "scipy.optimize"}


@pytest.mark.parametrize("argv, expected", [
    ([], set()),
    (["levels", "--F", "1", "--d", "1", "--bc", "dirichlet", "--count", "3"], set()),
    (["certify", "--F", "1", "--d", "1", "--a", "1"], set()),
    (["bracket", "--F", "0", "--d", PI_STR, "--a", "10"], set()),
    (["bracket", "--F", "0", "--d", "1", "--a", "1", "--below", "600"], set()),
    (["threshold", "--F", "0", "--d", PI_STR, "--i", "3"], set()),
    (["figure", "--F", "0.01", "--d", "1", "--a-min", "0.5", "--a-max", "2",
      "--steps", "5"], set()),
    (["levels", "--F", "1", "--d", "1", "--bc", "dirichlet", "--count", "3",
      "--method", "fd", "--nodes", "200"], {"scipy.linalg"}),
    (["levels", "--F", "1", "--d", "1", "--bc", "dirichlet", "--count", "3",
      "--method", "asymptotic-strong"], {"scipy.special"}),
], ids=["import", "levels", "certify", "bracket", "bracket-below", "threshold", "figure",
        "levels-fd", "levels-strong"])
def test_entry_point_loads_only_the_scipy_it_calls(argv, expected):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, *argv], env=env,
                         check=True, capture_output=True, text=True)
    loaded = set(out.stdout.split())
    assert loaded & _SUBPACKAGES == expected
    if not expected:
        assert loaded == set()


def test_output_does_not_depend_on_cache_state(capsys):
    # In one process: levels, certify with cold caches, certify again with warm
    # ones, levels again.  Each must print what a fresh process prints.
    levels_argv = ["levels", "--F", "3000", "--d", "1", "--bc", "dirichlet", "--count", "20"]
    certify_argv = ["certify", "--F", "1", "--d", "1", "--a", "1", "--format", "json"]
    transverse.ground_level.cache_clear()
    transverse._scale.cache_clear()
    printed = []
    for argv in (levels_argv, certify_argv, certify_argv, levels_argv):
        assert cli.main(argv) == 0
        printed.append(capsys.readouterr().out)

    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    fresh = [subprocess.run([sys.executable, "-m", "starklayer.cli", *argv], env=env,
                            check=True, capture_output=True, text=True).stdout
             for argv in (levels_argv, certify_argv)]
    assert printed == [fresh[0], fresh[1], fresh[1], fresh[0]]


def _readme_commands():
    """Each ``starklayer ...`` line of README.md's ``sh`` blocks, as an argv."""
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    commands, in_sh = [], False
    with open(readme, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("```"):
                in_sh = line == "```sh"
            elif in_sh and line.startswith("starklayer "):
                commands.append(line.split()[1:])
    return commands


_README_GOLDEN = os.path.join(os.path.dirname(__file__), "readme_golden")


def test_readme_commands_run(tmp_path, monkeypatch, capsys):
    # A renamed option or command must not silently break the README, and each
    # command prints the bytes of readme_golden/<command>.txt: for figure the
    # file its --out writes into tmp_path, for solve2d the k and lambda columns
    # only (its residual column is rounding noise).
    commands = _readme_commands()
    assert len(commands) == 6
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv) == 0, argv
        text = capsys.readouterr().out
        if argv[0] == "figure":
            assert text == ""
            text = (tmp_path / "curves.csv").read_text(encoding="utf-8")
        elif argv[0] == "solve2d":
            text = "".join(",".join(line.split(",")[:2]) + "\n" for line in text.splitlines())
        with open(os.path.join(_README_GOLDEN, argv[0] + ".txt"), encoding="utf-8") as fh:
            assert text == fh.read(), argv
