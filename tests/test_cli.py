import json
import math
import os
import re
import runpy
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from filippov import __version__, cli, dynamics, regularize
from filippov import system as system_module
from filippov.cli import run_command
from filippov.config import load_config
from filippov.cross import stratified_slide_curve
from filippov.expr import MAX_DEPTH, ParseError, parse
from filippov.regularize import certify

FOLD = """\
[system]
coords = x, y
x_plus = 1, 2*x
x_minus = 1, 2
"""

FOLD_OVERSHOOT = FOLD + "\n[transition]\nkind = overshoot\nm = 2\n"

EX21 = """\
[system]
coords = x, y
x_plus = 1, -1
x_minus = 1, 1

[run]
x0 = -1, 1
t_span = 0, 2
"""

CROSS = """\
[cross]
x_pp = -1, -1, 1
x_pm = -1, 1, 1
x_mp = 1, -1, 1
x_mm = 1, 1, 1
phi_kind = biased
phi_t0 = 0.25
psi_kind = biased
psi_t0 = -0.5

[run]
epsilons = 0.1, 0.05
etas = 0.2, 0.1
"""


def setup_cfg(tmp_path, text, name="case.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_classify_report(tmp_path):
    cfg = setup_cfg(tmp_path, FOLD)
    rc = run_command(["classify", "--config", cfg, "--out", str(tmp_path), "--grid=-1:1:201"])
    assert rc == 0
    report = json.loads((tmp_path / "classification.json").read_text())
    assert report["version"] == __version__
    assert len(report["config_sha256"]) == 64
    assert set(report["tolerances"]) == {"class_tol", "transversality_tol", "zero_tol"}
    grid = report["grid"]
    assert len(grid) == 201
    assert grid[0] == {"x": -1.0, "verdict": "Sliding", "roots": []}
    assert grid[-1]["verdict"] == "Sewing"
    assert len(report["boundary_estimates"]) == 1
    # the flip is the edge of the singular band, |a+| = class_tol * |a-| with
    # a+ = 2x and a- = 2, where zeroin on sliding_margin lands to the last float
    [estimate] = report["boundary_estimates"]
    assert abs(estimate + 1e-9) <= 2 * math.ulp(1e-9)


def test_certify_report_boundary(tmp_path):
    cfg = setup_cfg(tmp_path, FOLD_OVERSHOOT)
    rc = run_command(["certify", "--config", cfg, "--out", str(tmp_path), "--grid=0:1:51"])
    assert rc == 0
    report = json.loads((tmp_path / "certificates.json").read_text())
    verdicts = {row["x"]: row["verdict"] for row in report["grid"]}
    assert verdicts[0.2] == "SlidingCertified"
    assert verdicts[0.4] == "SewingCertified"
    sliding_row = next(r for r in report["grid"] if r["x"] == 0.2)
    assert sliding_row["roots"]
    assert {"t", "dh_dt"} == set(sliding_row["roots"][0])
    # overshoot m widens the sliding region up to (m-1)/(m+1)
    assert report["boundary_estimates"][0] == pytest.approx(1.0 / 3.0, abs=1e-6)


@pytest.mark.parametrize("command", ["classify", "certify"])
@pytest.mark.parametrize("expr, needle", [
    ("(3*t - t^3)/2 + 1e200*t*1e200 - 1e200*t*1e200", "psi(-1.0) = nan"),
    ("sqrt(t)", "psi(-1.0) undefined at x = (-1.0,): sqrt of negative value -1.0"),
], ids=["nan", "sqrt"])
def test_a_custom_psi_that_fails_its_checks_is_a_config_error(tmp_path, capsys, command, expr, needle):
    # the NaN psi used to pass and certify wrote NaN into certificates.json;
    # sqrt(t) failed every command with exit 1, classify included
    cfg = setup_cfg(tmp_path, FOLD + f"\n[transition]\nkind = custom\nexpr = {expr}\n")
    out = tmp_path / "out"
    assert run_command([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 7: transition: ") and needle in err
    assert not out.exists()


@pytest.mark.parametrize("expr", ["1e999*x", "1e200*1e200*x", "0*1e999 + x", "exp(1000)*x", "sqrt(-1)*x"])
def test_a_constant_that_is_not_finite_or_defined_is_a_config_error(tmp_path, capsys, expr):
    # the first three loaded as inf or NaN, so that classify wrote
    # SigmaSingular on every row and certify failed (exit 1); the last two
    # failed every command as a computation (exit 1)
    cfg = setup_cfg(tmp_path, FOLD.replace("x_plus = 1, 2*x", f"x_plus = 1, {expr}"))
    out = tmp_path / "out"
    for command in ("classify", "certify"):
        assert run_command([command, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: line 3: x_plus: syntax error at offset ")
    assert not out.exists()


@pytest.mark.parametrize("expr", ["1/0 + x", "x/0", "x/(1 - 1)", "x/(0*y)", "x/-0"])
def test_a_constant_zero_divisor_is_a_config_error(tmp_path, capsys, expr):
    # these loaded, and classify and certify exited 1 with "computation
    # failed: division by zero", leaving an empty output directory
    cfg = setup_cfg(tmp_path, FOLD.replace("x_plus = 1, 2*x", f"x_plus = 1, {expr}"))
    out = tmp_path / "out"
    for command in ("classify", "certify"):
        assert run_command([command, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: line 3: x_plus: syntax error at offset 2: expected a nonzero divisor")
    assert not out.exists()


@pytest.mark.parametrize("key, line, expr, message", [
    ("x_plus", 3, ".e1", "offset 1: expected number, found '.'"),
    ("x_plus", 3, "x^" + "9" * 5000, "offset 3: expected at most 15 exponent digits, found 5000"),
    ("expr", 8, "(3*t - t^3)/2 + (1 - t^2)*t^" + "9" * 400,
     "offset 29: expected at most 15 exponent digits, found 400"),
], ids=["dot-exponent", "exponent-5000-digits", "psi-exponent-400-digits"])
def test_a_literal_the_parser_cannot_convert_is_a_config_error(tmp_path, capsys, key, line, expr,
                                                               message):
    # the first two exited 2 with float()'s and int()'s message and no line
    # number; the third loaded, and differentiating psi raised OverflowError
    # out of run_command
    text = FOLD + "\n[transition]\nkind = custom\nexpr = (3*t - t^3)/2\n"
    text = text.replace("2*x", expr) if key == "x_plus" else text.replace("(3*t - t^3)/2", expr)
    cfg = setup_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert run_command(["classify", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: line {line}: {key}: syntax error at {message}\n"
    assert not out.exists()


def deep_field(leaf: str = "x") -> str:
    """leaf + x - x + ...: MAX_DEPTH operations in MAX_DEPTH parentheses."""
    return "(" * MAX_DEPTH + leaf + " + x - x" * (MAX_DEPTH // 2) + ")" * MAX_DEPTH


def deep_psi() -> str:
    """The smoothstep cubic, MAX_DEPTH operations deep."""
    return "(3*t - t^3)/2" + " + t - t" * ((MAX_DEPTH - 4) // 2) + " - (t - t)"


def test_an_expression_at_the_depth_limit_runs_every_command(tmp_path):
    # both are at the limit: one more operation or pair of parentheses is refused
    for text in (deep_field(), deep_psi()):
        with pytest.raises(ParseError, match="nested operations"):
            parse(f"{text} + 1")
    with pytest.raises(ParseError, match="nested parentheses"):
        parse(f"({deep_field()})")
    text = (FOLD.replace("2*x", deep_field())
            + f"\n[transition]\nkind = custom\nexpr = {deep_psi()}\n"
            + "\n[run]\ngrid = -1:1:11\nepsilons = 0.1\nx0 = -1, 0.5\nt_span = 0, 0.5\n"
            + CROSS.split("\n[run]")[0].replace("x_pp = -1,", f"x_pp = {deep_field('-1')},"))
    cfg = setup_cfg(tmp_path, text)
    runs = [[name] for name in cli.COMMANDS] + [["integrate", "--mode", "regularized"]]
    for argv in runs:
        out = tmp_path / "-".join(argv)
        assert run_command([argv[0], "--config", cfg, "--out", str(out), *argv[1:]]) == 0, argv
        assert any(out.iterdir())


@pytest.mark.parametrize("key, line, expr", [
    ("x_plus", 3, "(" * (MAX_DEPTH + 1) + "x" + ")" * (MAX_DEPTH + 1)),
    ("x_plus", 3, "x" + " + x - x" * (MAX_DEPTH // 2) + " + x"),
    # these escaped run_command as a RecursionError
    ("x_plus", 3, "(" * 250 + "x" + ")" * 250),
    ("x_plus", 3, "+".join(["x"] * 1000)),
    ("expr", 8, "(3*t - t^3)/2" + " + t - t" * (MAX_DEPTH // 2)),
], ids=["parentheses", "operations", "parentheses-250", "sum-1000", "psi"])
def test_an_expression_over_the_depth_limit_is_a_config_error(tmp_path, capsys, key, line, expr):
    text = FOLD + "\n[transition]\nkind = custom\nexpr = (3*t - t^3)/2\n"
    text = text.replace("2*x", expr) if key == "x_plus" else text.replace("(3*t - t^3)/2", expr)
    cfg = setup_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert run_command(["all", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line}: {key}: syntax error at offset ")
    assert f"expected at most {MAX_DEPTH} nested" in err
    assert not out.exists()


def test_grid_override_validates(tmp_path):
    cfg = setup_cfg(tmp_path, FOLD)
    rc = run_command(["classify", "--config", cfg, "--out", str(tmp_path), "--grid=1:0:5"])
    assert rc == 2


@pytest.mark.parametrize("grid", ["-1:nan:5", "nan:1:5", "-inf:1:5", "-1:inf:5"])
def test_grid_override_refuses_non_finite_bounds(tmp_path, capsys, grid):
    # a NaN bound passed hi > lo and failed later as a computation (exit 1)
    cfg = setup_cfg(tmp_path, FOLD)
    rc = run_command(["classify", "--config", cfg, "--out", str(tmp_path), f"--grid={grid}"])
    assert rc == 2
    assert "grid bounds must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["file", "flag"])
def test_a_grid_whose_span_overflows_is_a_config_error(tmp_path, capsys, where):
    # -1e308:1e308 has finite bounds, but hi - lo is inf: classify exited 0
    # and wrote NaN, Infinity and 1e+308 as the grid's x values
    grid = "-1e308:1e308:3"
    if where == "file":
        cfg, flags = setup_cfg(tmp_path, FOLD + f"\n[run]\ngrid = {grid}\n"), []
    else:
        cfg, flags = setup_cfg(tmp_path, FOLD), [f"--grid={grid}"]
    out = tmp_path / "out"
    assert run_command(["classify", "--config", cfg, "--out", str(out), *flags]) == 2
    line = "line 7: " if where == "file" else ""
    assert capsys.readouterr().err == (
        f"error: {line}grid bounds must be finite, as must hi - lo, got {grid!r}\n")
    assert not out.exists()


def banded(lo: float, hi: float) -> str:
    """A fold whose a_plus vanishes exactly on [lo, hi]: Sliding left of lo
    (a_plus < 0 < a_minus = 1), Sewing right of hi."""
    return (
        "[system]\ncoords = x, y\nx_plus = 1, "
        f"(x - {hi} + abs(x - {hi}))/2 + (x - {lo} - abs(x - {lo}))/2\nx_minus = 1, 1\n"
    )


@pytest.mark.parametrize("command, report, undecided", [
    ("classify", "classification.json", "SigmaSingular"),
    ("certify", "certificates.json", "Indeterminate"),
])
@pytest.mark.parametrize("lo, hi, gap", [
    (0.05, 0.05, 0),  # the flip lies between two grid nodes
    (-0.05, 0.05, 1),  # x = 0 is undecided
    (-0.05, 0.15, 2),  # x = 0 and x = 0.1
    (-0.15, 0.15, 3),  # x = -0.1, 0 and 0.1: too wide to refine
])
def test_boundaries_refine_across_at_most_two_undecided_points(
        tmp_path, command, report, undecided, lo, hi, gap):
    cfg = setup_cfg(tmp_path, banded(lo, hi))
    assert run_command([command, "--config", cfg, "--out", str(tmp_path), "--grid=-1:1:21"]) == 0
    out = json.loads((tmp_path / report).read_text())
    verdicts = [row["verdict"] for row in out["grid"]]
    assert verdicts.count(undecided) == gap
    if gap > 2:
        assert out["boundary_estimates"] == []
    else:
        [estimate] = out["boundary_estimates"]
        if command == "classify" or lo == hi:
            # classify flips where |a_plus| = CLASS_TOL * a_minus, just left
            # of lo, and certify where a_plus = 0, the witness at the band end
            assert estimate == pytest.approx(lo, abs=2e-9 if command == "classify" else 1e-12)
        else:
            # a_plus = 0 on all of [lo, hi], so certificate_margin is 0 there
            # and zeroin stops at its first probe inside
            assert lo <= estimate <= hi


def test_an_unproven_piece_moves_the_certified_boundary_to_the_hull(tmp_path, monkeypatch):
    # with 6 cells, the bump's piece [0.5, 1] stays unproven with bounds
    # (0.25, 1.775), above psi's true peak 1.038: certify is Indeterminate
    # where r = (1 + x)/(1 - x) lies in (psi(0.5), 1.775], and
    # certificate_margin, over the hull (-1, 1.775), vanishes at its far end
    monkeypatch.setattr(regularize, "MAX_CELLS", 6)
    text = FOLD + "\n[transition]\nkind = custom\nexpr = (3*t - t^3)/2 + 0.6*(1 - t^2)^2\n"
    assert run_command(["certify", "--config", setup_cfg(tmp_path, text), "--out", str(tmp_path),
                        "--grid=-1:1:21"]) == 0
    report = json.loads((tmp_path / "certificates.json").read_text())
    verdicts = {row["x"]: row["verdict"] for row in report["grid"]}
    assert [verdicts[x] for x in (0.0, 0.10000000000000009, 0.20000000000000018,
                                  0.30000000000000004)] == [
        "SlidingCertified", "Indeterminate", "Indeterminate", "SewingCertified"]
    _, top = load_config(setup_cfg(tmp_path, text)).transition.range_ends((0.0,))
    assert top == pytest.approx(1.775)
    assert report["boundary_estimates"] == [pytest.approx((top - 1.0) / (top + 1.0), abs=1e-15)]


def test_a_nan_margin_stops_the_boundary_search_inside_its_gap(tmp_path):
    # psi is NaN on (0.25, 0.35), where 1e300*w*1e300 overflows twice, so
    # there range_ends and certificate_margin are NaN: zeroin stops at its
    # first probe, the midpoint of the gap, which holds the one undecided row
    w = "(0.05 - abs(x - 0.3) + abs(0.05 - abs(x - 0.3)))"
    text = ("[system]\ncoords = x, y\nx_plus = 1, x - 0.3\nx_minus = 1, 1\n[transition]\n"
            f"kind = custom\nexpr = (3*t - t^3)/2 + 1e300*{w}*1e300 - 1e300*{w}*1e300\n")
    cfg = setup_cfg(tmp_path, text)
    assert run_command(["certify", "--config", cfg, "--out", str(tmp_path), "--grid=-1:1:21"]) == 0
    report = json.loads((tmp_path / "certificates.json").read_text())
    assert [row["verdict"] for row in report["grid"][12:15]] == [
        "SlidingCertified", "Indeterminate", "SewingCertified"]
    loaded = load_config(cfg)
    assert math.isnan(regularize.certificate_margin(loaded.system, loaded.transition, 0.3))
    assert report["boundary_estimates"] == [0.5 * (0.20000000000000018 + 0.40000000000000013)]


@pytest.mark.parametrize("command, report", [
    ("classify", "classification.json"), ("certify", "certificates.json"),
])
def test_two_flips_give_two_boundaries(tmp_path, command, report):
    # Sliding exactly on |x| < 0.5
    text = "[system]\ncoords = x, y\nx_plus = 1, x^2 - 0.25\nx_minus = 1, 1\n"
    cfg = setup_cfg(tmp_path, text)
    assert run_command([command, "--config", cfg, "--out", str(tmp_path), "--grid=-1:1:20"]) == 0
    estimates = json.loads((tmp_path / report).read_text())["boundary_estimates"]
    assert estimates == [pytest.approx(-0.5, abs=1e-3), pytest.approx(0.5, abs=1e-3)]


def test_integrate_filippov(tmp_path, capsys):
    cfg = setup_cfg(tmp_path, EX21)
    rc = run_command(["integrate", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x,y,event"
    kinds = [line.split(",")[3] for line in lines[1:] if line.split(",")[3]]
    # the surface hit and the slide entry share a node, so one cell holds both
    assert kinds == ["SigmaHit;SlideEntry"]
    final = lines[-1].split(",")
    assert float(final[0]) == pytest.approx(2.0)
    assert float(final[1]) == pytest.approx(1.0, abs=1e-9)
    assert float(final[2]) == 0.0


def test_integrate_flag_overrides(tmp_path):
    cfg = setup_cfg(tmp_path, FOLD)
    rc = run_command([
        "integrate", "--config", cfg, "--out", str(tmp_path),
        "--from", "0,1", "--tspan", "0,1", "--mode", "regularized", "--epsilon", "0.1",
    ])
    assert rc == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    first = lines[1].split(",")
    assert [float(first[0]), float(first[1]), float(first[2])] == [0.0, 0.0, 1.0]
    assert float(lines[-1].split(",")[0]) == pytest.approx(1.0)


@pytest.mark.parametrize("mode", ["filippov", "regularized"])
def test_integrate_rejects_decreasing_tspan(tmp_path, capsys, mode):
    cfg = setup_cfg(tmp_path, EX21)
    rc = run_command([
        "integrate", "--config", cfg, "--out", str(tmp_path), "--tspan", "2,1", "--mode", mode,
    ])
    assert rc == 2
    assert "t_span must be increasing" in capsys.readouterr().err
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize("mode", ["filippov", "regularized"])
@pytest.mark.parametrize("state", ["1", "1,2,3"])
def test_integrate_checks_the_state_dimension(tmp_path, capsys, mode, state):
    # the regularized mode used to escape with a TypeError from the field
    cfg = setup_cfg(tmp_path, FOLD)
    rc = run_command([
        "integrate", "--config", cfg, "--out", str(tmp_path), f"--from={state}", "--mode", mode,
    ])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize("flag", ["--from=nan,0.5", "--tspan=0,nan", "--tspan=0,inf",
                                  "--epsilon=nan"])
def test_integrate_refuses_non_finite_flags(tmp_path, capsys, monkeypatch, flag):
    # NaN passed every comparison: a NaN t_end was never reached, and the
    # orbit ran until its state overflowed
    monkeypatch.setattr(dynamics, "MAX_STEPS", 2000)
    cfg = setup_cfg(tmp_path, FOLD)
    rc = run_command([
        "integrate", "--config", cfg, "--out", str(tmp_path), "--from=-1,0.5",
        "--mode", "regularized", flag,
    ])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "trajectory.csv").exists()


@pytest.mark.parametrize("command, flags, line", [
    ("integrate", ["--tspan=0,0"], "t_span = 0,0"),
    ("integrate", ["--epsilon=-1", "--mode", "filippov"], "epsilons = -1"),
    ("integrate", ["--from=1,2,3"], "x0 = 1,2,3"),
    ("classify", ["--grid=1:0:5"], "grid = 1:0:5"),
    ("classify", ["--grid=-1:1:x"], "grid = -1:1:x"),
    ("integrate", ["--epsilon=abc"], "epsilons = abc"),
], ids=["tspan", "epsilon-filippov", "from", "grid", "grid-not-a-number", "epsilon-text"])
def test_a_flag_is_checked_as_its_run_key(tmp_path, capsys, command, flags, line):
    # --tspan=0,0 and --epsilon=-1 in filippov mode used to run with exit 0
    out = tmp_path / "out"
    key_cfg = setup_cfg(tmp_path, FOLD + "\n[run]\n" + line + "\n", "key.cfg")
    assert run_command([command, "--config", key_cfg, "--out", str(out)]) == 2
    from_key = capsys.readouterr().err
    flag_cfg = setup_cfg(tmp_path, FOLD + "\n[run]\nx0 = -1, 0.5\n", "flag.cfg")
    assert run_command([command, "--config", flag_cfg, "--out", str(out), *flags]) == 2
    assert capsys.readouterr().err == re.sub(r"line \d+: ", "", from_key)
    assert not out.exists()


def test_a_flag_does_not_hide_a_bad_key(tmp_path, capsys):
    # the file is checked before the flag replaces its value
    cfg = setup_cfg(tmp_path, EX21.replace("t_span = 0, 2", "t_span = 2, 1"))
    rc = run_command(["integrate", "--config", cfg, "--out", str(tmp_path), "--tspan=0,1"])
    assert rc == 2
    assert "line 8: t_span must be increasing" in capsys.readouterr().err
    assert not (tmp_path / "trajectory.csv").exists()


def test_integrate_needs_x0(tmp_path, capsys):
    cfg = setup_cfg(tmp_path, FOLD)
    rc = run_command(["integrate", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_manifold_report(tmp_path):
    cfg = setup_cfg(tmp_path, FOLD_OVERSHOOT + "\n[run]\nepsilons = 0.1, 0.05\n")
    rc = run_command(["manifold", "--config", cfg, "--out", str(tmp_path), "--grid=-1:0.2:13"])
    assert rc == 0
    report = json.loads((tmp_path / "manifold.json").read_text())
    assert [t["epsilon"] for t in report["tracks"]] == [0.1, 0.05]
    t0, t1 = report["tracks"]
    assert t0["hausdorff_to_sigma"] > t1["hausdorff_to_sigma"] > 0
    assert {"x", "t", "y", "dh_dt"} == set(t0["points"][0])
    assert all(p["x"] <= 0.2 for p in t0["points"])


def test_manifold_certifies_each_point_once_for_all_epsilons(tmp_path, monkeypatch):
    calls = 0
    height_roots = regularize.height_roots

    def counting(*args):
        nonlocal calls
        calls += 1
        return height_roots(*args)

    for owner in (regularize, dynamics):  # the names a caller can look it up under
        monkeypatch.setattr(owner, "height_roots", counting)
    cfg = setup_cfg(tmp_path, FOLD_OVERSHOOT + "\n[run]\nepsilons = 0.1, 0.05, 0.025\n")
    assert run_command(["manifold", "--config", cfg, "--out", str(tmp_path), "--grid=-1:1:41"]) == 0
    assert calls == 41
    tracks = json.loads((tmp_path / "manifold.json").read_text())["tracks"]
    assert [t["epsilon"] for t in tracks] == [0.1, 0.05, 0.025]
    loaded = load_config(cfg)
    for track in tracks:
        assert track["points"]
        for p in track["points"]:
            witness = certify(loaded.system, loaded.transition, p["x"]).witness
            assert (p["t"], p["dh_dt"]) == (witness.t, witness.dh_dt)
            assert p["y"] == track["epsilon"] * witness.t
        assert track["excluded"] == tracks[0]["excluded"]


BUMPX = FOLD + "\n[transition]\nkind = custom\nexpr = (3*t - t^3)/2 + 0.8*(1 + x^2)*(1 - t^2)^2\n"


@pytest.mark.parametrize("text", [FOLD_OVERSHOOT, BUMPX], ids=["overshoot", "bumpx"])
def test_all_certifies_each_grid_point_once(tmp_path, monkeypatch, text):
    # all used to certify each point three times: for certify, slow-fast and manifold
    calls = 0
    height_roots = regularize.height_roots

    def counting(*args):
        nonlocal calls
        calls += 1
        return height_roots(*args)

    for owner in (regularize, dynamics):  # the names a caller can look it up under
        monkeypatch.setattr(owner, "height_roots", counting)
    cfg = setup_cfg(tmp_path, text)
    counts = {}
    for command in ("certify", "all"):
        calls = 0
        out = str(tmp_path / command)
        assert run_command([command, "--config", cfg, "--out", out, "--grid=-1:1:41"]) == 0
        counts[command] = calls
    assert counts["all"] == counts["certify"] >= 41


def test_a_refined_boundary_costs_no_certify_call(tmp_path, monkeypatch):
    # the golden fold grid: 41 points, one certify each; the gap from -0.05
    # to 0.05 around the undecided x = 0 is refined on certificate_margin,
    # whose first probe, the midpoint, is its exact zero
    calls = []
    monkeypatch.setattr(cli, "certify", lambda *args: calls.append(args) or certify(*args))
    out = tmp_path / "out"
    assert run_command(["certify", "--config", setup_cfg(tmp_path, FOLD), "--out", str(out),
                        "--grid=-1:1:41"]) == 0
    assert len(calls) == 41
    [boundary] = json.loads((out / "certificates.json").read_text())["boundary_estimates"]
    assert boundary == 0.0


@pytest.mark.parametrize("text", [
    FOLD,
    FOLD_OVERSHOOT,
    FOLD.replace("x_plus", "sigma = y - 0.25*x^2\nx_plus"),
    BUMPX,
], ids=["smoothstep", "overshoot", "curved-sigma", "bumpx"])
def test_all_writes_the_grid_artifacts_each_command_writes(tmp_path, text):
    cfg = setup_cfg(tmp_path, text)
    assert run_command(["all", "--config", cfg, "--out", str(tmp_path / "all"),
                        "--grid=-1:1:41"]) == 0
    for command, artifact in (("certify", "certificates.json"), ("slow-fast", "slowfast.csv"),
                              ("manifold", "manifold.json")):
        out = tmp_path / command
        assert run_command([command, "--config", cfg, "--out", str(out), "--grid=-1:1:41"]) == 0
        assert (tmp_path / "all" / artifact).read_bytes() == (out / artifact).read_bytes()


def test_manifold_refuses_nan_epsilon(tmp_path, capsys):
    # manifold.json used to be written with bare NaN tokens, which is not JSON
    cfg = setup_cfg(tmp_path, FOLD + "\n[run]\nepsilons = nan\n")
    rc = run_command(["manifold", "--config", cfg, "--out", str(tmp_path), "--grid=-1:1:5"])
    assert rc == 2
    assert "line 7: expected finite numbers" in capsys.readouterr().err
    assert not (tmp_path / "manifold.json").exists()


def test_manifold_distance_takes_no_pairwise_matrix(tmp_path):
    # hausdorff_to_sigma is max |y|; an n x n distance matrix over a
    # 3001-point grid peaked near 100 MB
    cfg = setup_cfg(tmp_path, FOLD)
    tracemalloc.start()
    try:
        rc = run_command(["manifold", "--config", cfg, "--out", str(tmp_path), "--grid=-1:1:3001"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 32 * 2 ** 20
    for track in json.loads((tmp_path / "manifold.json").read_text())["tracks"]:
        assert track["hausdorff_to_sigma"] == max(abs(p["y"]) for p in track["points"])


def test_manifold_no_sliding_exit1(tmp_path, capsys):
    text = "[system]\ncoords = x, y\nx_plus = 1, 1\nx_minus = 1, 2\n"
    cfg = setup_cfg(tmp_path, text)
    rc = run_command(["manifold", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 1
    assert "computation failed:" in capsys.readouterr().err


def test_only_the_regularized_orbit_generates_the_blend(tmp_path, monkeypatch):
    # the generated psi-blend is built on first use: loading a config and the
    # grid commands never pay for it, a regularized orbit builds its field
    # and its Jacobian once each
    built = []
    real = system_module._blend_function
    monkeypatch.setattr(system_module, "_blend_function",
                        lambda system, jacobian, *regularized:
                        built.append(jacobian) or real(system, jacobian, *regularized))
    cfg = setup_cfg(tmp_path, FOLD_OVERSHOOT + "\n[run]\nx0 = -1, 0.5\nepsilons = 0.1\n")
    system = load_config(cfg).system
    assert not {"_blend", "_blend_jacobian"} & set(vars(system))
    for command in ("classify", "certify", "slow-fast", "manifold"):
        assert run_command([command, "--config", cfg, "--out", str(tmp_path / command),
                            "--grid=-1:1:41"]) == 0
    assert built == []
    assert run_command(["integrate", "--config", cfg, "--out", str(tmp_path / "orbit"),
                        "--mode", "regularized"]) == 0
    assert built == [False, True]


def test_slow_fast_csv(tmp_path):
    cfg = setup_cfg(tmp_path, FOLD)
    rc = run_command(["slow-fast", "--config", cfg, "--out", str(tmp_path), "--grid=-1:1:21"])
    assert rc == 0
    lines = (tmp_path / "slowfast.csv").read_text().splitlines()
    assert lines[0] == "x,theta,r,chart"
    charts = {line.split(",")[3] for line in lines[1:]}
    assert charts == {"E", "F+", "F-"}


def test_cross_report(tmp_path):
    cfg = setup_cfg(tmp_path, CROSS)
    rc = run_command(["cross", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "cross.json").read_text())
    assert [(p["epsilon"], p["eta"]) for p in report["pairs"]] == [(0.1, 0.2), (0.05, 0.1)]
    for pair in report["pairs"]:
        assert pair["t0"] == 0.25
        assert pair["u0"] == -0.5
        assert pair["residual_x"] <= 1e-12
        assert pair["residual_y"] <= 1e-12
        assert pair["hausdorff_to_axis"] > 0


def test_cross_needs_cross_section(tmp_path, capsys):
    cfg = setup_cfg(tmp_path, FOLD)
    rc = run_command(["cross", "--config", cfg, "--out", str(tmp_path)])
    assert rc == 2
    assert "needs a [cross] section" in capsys.readouterr().err


def test_grid_commands_are_planar_only(tmp_path, capsys):
    text = "[system]\ncoords = x1, x2, y\nx_plus = -x2, x1, -1\nx_minus = -x2, x1, 1\n"
    cfg = setup_cfg(tmp_path, text)
    out = tmp_path / "out"
    rc = run_command(["certify", "--config", cfg, "--out", str(out)])
    assert rc == 2
    assert "planar-only" in capsys.readouterr().err
    assert not (out / "certificates.json").exists()


def test_all_command_artifacts(tmp_path):
    text = FOLD_OVERSHOOT + "\n[run]\nx0 = -1, 1\nt_span = 0, 1\ngrid = -1:1:41\n"
    cfg = setup_cfg(tmp_path, text)
    out = tmp_path / "out"
    rc = run_command(["all", "--config", cfg, "--out", str(out)])
    assert rc == 0
    for name in ("classification.json", "certificates.json", "slowfast.csv",
                 "manifold.json", "trajectory.csv"):
        assert (out / name).exists()
    assert not (out / "cross.json").exists()


def test_all_on_a_sewing_config_writes_no_manifold(tmp_path):
    # no point slides, so there is no manifold to track: all writes the
    # other grid artifacts and succeeds
    cfg = setup_cfg(tmp_path, "[system]\ncoords = x, y\nx_plus = 1, 1\nx_minus = 1, 2\n")
    out = tmp_path / "out"
    assert run_command(["all", "--config", cfg, "--out", str(out), "--grid=-1:1:21"]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "certificates.json", "classification.json", "slowfast.csv"]


def test_a_grid_command_needs_a_system_section(tmp_path, capsys):
    cfg = setup_cfg(tmp_path, CROSS)
    assert run_command(["classify", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "error: this command needs a [system] section" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["classify", "certify"])
@pytest.mark.parametrize("term, message", [
    ("sin(1e308*x*x*10)", "sin undefined at inf"),  # libm's ValueError used to exit 2
    ("sqrt(x)", "sqrt of negative value -1.0"),
])
def test_a_function_outside_its_domain_fails_the_computation(tmp_path, capsys, command, term,
                                                             message):
    cfg = setup_cfg(tmp_path, FOLD.replace("2*x", f"2*x + {term}") + "[run]\ngrid = -1:1:5\n")
    assert run_command([command, "--config", cfg, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"computation failed: {message}\n"


def test_no_command_imports_numpy(tmp_path):
    # numpy's import was about half of every short command's wall time; the
    # commands run on floats, and only the array-returning API imports it.
    # dataclasses (which imports inspect) cost about two thirds of importing
    # filippov.cli from cached bytecode; the records are named tuples and
    # plain classes
    text = (FOLD + "\n[transition]\nkind = custom\nexpr = tanh(3*t)/tanh(3) + 0.2*x*(1 - t^2)\n"
            + "\n[run]\ngrid = -1:1:21\nepsilons = 0.1\nx0 = -1, 0.5\nt_span = 0, 1\n"
            + CROSS.split("\n[run]")[0])
    cfg = setup_cfg(tmp_path, text)
    singular = setup_cfg(tmp_path, "[system]\ncoords = x, y\nx_plus = 1, -1\nx_minus = 1, x\n"
                         "\n[run]\nx0 = -0.5, 0.5\nt_span = 0, 2\n", "singular.cfg")
    bad = setup_cfg(tmp_path, FOLD.replace("2*x", "1e999*x"), "bad.cfg")
    runs = [[name, cfg] for name in cli.COMMANDS] + [["integrate", cfg, "--mode", "regularized"],
                                                    ["integrate", singular], ["classify", bad]]
    argvs = [[name, "--config", path, "--out", str(tmp_path / str(k)), *rest]
             for k, (name, path, *rest) in enumerate(runs)]
    code = ("import json, sys\n"
            "from filippov.cli import run_command\n"
            "codes = [run_command(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps([codes, *(name in sys.modules\n"
            "                           for name in ('numpy', 'dataclasses', 'inspect'))]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], env=env,
                         capture_output=True, text=True, check=True)
    assert json.loads(run.stdout) == [[0] * (len(runs) - 2) + [1, 2], False, False, False]


def test_missing_config_exit2(tmp_path, capsys):
    rc = run_command(["classify", "--config", str(tmp_path / "no.cfg"), "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_usage_error_passthrough(tmp_path, capsys):
    assert run_command(["frobnicate"]) == 2
    capsys.readouterr()


def test_parser_is_built_once_across_commands(tmp_path, capsys):
    # every call used to build the seven-subcommand parser again
    cfg = setup_cfg(tmp_path, EX21)
    out = str(tmp_path / "out")
    cli._build_parser.cache_clear()
    assert run_command(["classify", "--config", cfg, "--out", out]) == 0
    assert run_command(["integrate", "--config", cfg, "--out", out, "--bogus"]) == 2
    assert run_command(["integrate", "--config", cfg, "--out", out]) == 0
    assert (tmp_path / "out" / "trajectory.csv").exists()
    assert run_command(["cross", "--config", cfg, "--out", out]) == 2  # no [cross] section
    assert run_command(["certify", "--config", cfg, "--out", out, "--grid=-1:1:5"]) == 0
    assert run_command(["frobnicate"]) == 2
    assert cli._build_parser.cache_info().misses == 1
    capsys.readouterr()


def test_deterministic_reruns(tmp_path):
    cfg = setup_cfg(tmp_path, FOLD_OVERSHOOT)
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_command(["certify", "--config", cfg, "--out", str(out), "--grid=-1:1:101"]) == 0
    assert (a / "certificates.json").read_bytes() == (b / "certificates.json").read_bytes()


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import numpy as np

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text()
    | st.floats().map(np.float64) | st.sampled_from([-0.0, 1e300, 5e-324, math.inf, math.nan]),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(value=JSON_VALUES)
def test_reports_are_written_as_json_dumps_writes_them(value):
    assert cli._json(value) == json.dumps(value, indent=2)


def test_a_value_json_cannot_write_is_refused():
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        cli._json({"a": [1, {2}]})


@pytest.mark.parametrize("text, code, err", [
    (CROSS, 0, ""),
    (FOLD, 2, "error: this command needs a [cross] section\n"),
], ids=["cross", "no-cross-section"])
def test_the_module_run_as_a_script_exits_with_the_command_code(tmp_path, monkeypatch, capsys,
                                                               text, code, err):
    # python -m filippov.cli runs main, which exits with run_command's code;
    # the module runs afresh, so the imported one leaves sys.modules meanwhile
    cfg = setup_cfg(tmp_path, text)
    out = tmp_path / "out"
    monkeypatch.setattr(sys, "argv", ["filippov", "cross", "--config", cfg, "--out", str(out)])
    monkeypatch.delitem(sys.modules, "filippov.cli")
    with pytest.raises(SystemExit) as exit_:
        runpy.run_module("filippov.cli", run_name="__main__")
    assert exit_.value.code == code
    assert capsys.readouterr().err == err
    assert (out / "cross.json").exists() == (code == 0)


def test_a_cross_pair_row_is_the_curve_record(tmp_path):
    # the row is {"epsilon": eps, ...} and then every other field of
    # StratifiedCurve, in its order
    cfg = setup_cfg(tmp_path, CROSS)
    assert run_command(["cross", "--config", cfg, "--out", str(tmp_path)]) == 0
    pairs = json.loads((tmp_path / "cross.json").read_text())["pairs"]
    cross_system = load_config(cfg).cross
    for pair, (eps, eta) in zip(pairs, [(0.1, 0.2), (0.05, 0.1)], strict=True):
        curve = stratified_slide_curve(cross_system, eps, eta)._asdict()
        assert list(pair) == ["epsilon", *list(curve)[1:]]
        assert list(pair.values()) == list(curve.values())
