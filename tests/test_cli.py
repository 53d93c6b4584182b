"""CLI contract: deterministic output, round-trip config, exit codes."""

import io
import json
import os
import subprocess
import sys

import pytest

from starklayer import cli, fd2d

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


def test_exit_code_solver_failure(capsys):
    code = cli.main(["threshold", "--F", "0", "--d", PI_STR, "--i", "2000"])
    assert code == 1
    err = capsys.readouterr().err
    report = json.loads(err)
    assert report["error"] == "UnsupportedOrderError"


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


def test_emit_figure_requires_figure_command():
    args = cli._build_parser().parse_args(
        ["levels", "--F", "0", "--d", "1", "--bc", "dirichlet"])
    config = cli.config_from_args(args)
    with pytest.raises(ValueError):
        cli.emit_figure(config)


def test_emit_figure_writes_csv(tmp_path):
    args = cli._build_parser().parse_args(
        ["figure", "--F", "1", "--d", "1", "--a-min", "1", "--a-max", "2",
         "--steps", "3"])
    config = cli.config_from_args(args)
    buf = io.StringIO()
    assert cli.emit_figure(config, out=buf) == 0
    lines = buf.getvalue().strip().splitlines()
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
    (["bracket", "--F", "0", "--d", PI_STR, "--a", "10"], {"scipy.special"}),
    (["threshold", "--F", "0", "--d", PI_STR, "--i", "3"], {"scipy.special"}),
    (["figure", "--F", "0.01", "--d", "1", "--a-min", "0.5", "--a-max", "2",
      "--steps", "5"], {"scipy.special"}),
    (["levels", "--F", "1", "--d", "1", "--bc", "dirichlet", "--count", "3",
      "--method", "fd", "--nodes", "200"], {"scipy.linalg"}),
], ids=["import", "levels", "certify", "bracket", "threshold", "figure", "levels-fd"])
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
