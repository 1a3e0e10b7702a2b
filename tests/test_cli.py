import json
import os
import tracemalloc

import pytest

from filippov import __version__, cli, dynamics, regularize
from filippov.cli import run_command
from filippov.config import load_config
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
    # the flip refines to the edge of the singular band |a+ a-| <= class_tol
    assert abs(report["boundary_estimates"][0]) < 1e-9


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
        # classify flips where |a_plus| = CLASS_TOL * a_minus, certify where
        # the witness turns tangential: both just left of lo
        assert estimate == pytest.approx(lo, abs=2e-9 if command == "classify" else 1e-3)


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
