import numpy as np
import pytest

from filippov.config import ConfigError, grid_points, load_config
from filippov.regularize import Biased, Custom, Overshoot, Smoothstep
from filippov.system import SigmaClass, classify_point


def write(tmp_path, text, name="case.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


FOLD = """\
[system]
coords = x, y
x_plus = 1, 2*x
x_minus = 1, 2

[transition]
kind = overshoot
m = 2

[run]
grid = -1:1:11
epsilons = 0.1, 0.05
x0 = 0, 1
t_span = 0, 2
mode = regularized
"""


def test_load_full_config(tmp_path):
    cfg = load_config(write(tmp_path, FOLD))
    assert cfg.system is not None
    assert cfg.system.coords == ("x", "y")
    assert isinstance(cfg.transition, Overshoot)
    assert cfg.transition.m == 2.0
    assert cfg.run.grid == (-1.0, 1.0, 11)
    assert cfg.run.epsilons == (0.1, 0.05)
    assert cfg.run.x0 == (0.0, 1.0)
    assert cfg.run.t_span == (0.0, 2.0)
    assert cfg.run.mode == "regularized"
    assert cfg.cross is None
    assert len(cfg.sha256) == 64


def test_defaults(tmp_path):
    cfg = load_config(write(tmp_path, "[system]\ncoords = x, y\nx_plus = 1, 1\nx_minus = 1, -1\n"))
    assert isinstance(cfg.transition, Smoothstep)
    assert cfg.run.grid == (-1.0, 1.0, 201)
    assert cfg.run.epsilons == (0.1,)
    assert cfg.run.mode == "filippov"
    assert cfg.run.x0 is None


def test_sha_tracks_content(tmp_path):
    a = load_config(write(tmp_path, FOLD, "a.cfg"))
    b = load_config(write(tmp_path, FOLD, "b.cfg"))
    c = load_config(write(tmp_path, FOLD + "# trailing comment\n", "c.cfg"))
    assert a.sha256 == b.sha256
    assert a.sha256 != c.sha256


def test_grid_points():
    xs = grid_points((-1.0, 1.0, 11))
    assert np.allclose(xs, np.linspace(-1, 1, 11))


def test_line_numbered_errors(tmp_path):
    sys3 = "[system]\ncoords = x, y\nx_plus = 1, 1\nx_minus = 1, -1\n"
    cross = "[cross]\nx_pp = 1, 1, 1\nx_pm = 1, 1, 1\nx_mp = 1, 1, 1\nx_mm = 1, 1, 1\n"
    cases = [
        ("[nope]\n", 1, "unknown section"),
        ("coords = x, y\n", 1, "outside"),
        ("[system]\ncoords x y\n", 2, "key = value"),
        ("[system]\ncoords = x, y\ncoords = x, y\n", 3, "duplicate"),
        ("[system]\ncoords = x, y\nx_plus = 1, 2*x\nx_minus = 1\n", 4, "components"),
        ("[system]\ncoords = x, y\nx_plus = 1, 2*\nx_minus = 1, 1\n", 3, "syntax error"),
        ("[system]\ncoords = x\n", 2, "two coordinates"),
        (sys3 + "[run]\ngrid = 1:0:11\n", 6, "grid"),
        (sys3 + "[run]\nmode = wild\n", 6, "mode"),
        (sys3 + "[run]\nepsilons = -0.1\n", 6, "positive"),
        (sys3 + "[run]\nwhatever = 3\n", 6, "unknown"),
        (sys3 + "[run]\nt_span = 2, 1\n", 6, "t_span"),
        (sys3 + "[run]\nseed = 7\n", 6, "unknown"),
        (sys3 + "[run]\nabs_tol = 1e-9\n", 6, "unknown [run] key 'abs_tol'"),
        # tolerances are constants: this key once reached certify but not
        # slow-fast or manifold, which then disagreed on the same point
        (sys3 + "[run]\nzero_tol = 0.5\n", 6, "unknown [run] key 'zero_tol'"),
        (sys3 + "[run]\nepsilons =\n", 6, "empty list"),
        (sys3 + "[run]\netas = ,\n", 6, "empty list"),
        (sys3 + "[run]\nx0 =\n", 6, "empty list"),
        (sys3 + "[run]\nt_span =\n", 6, "empty list"),
        # the coordinate t would shadow the transition's stretched variable
        ("[system]\ncoords = t, y\nx_plus = 1, 1\nx_minus = 1, -1\n"
         "[transition]\nkind = custom\nexpr = (3*t - t^3)/2\n", 6, "clashes"),
        (sys3 + "[transition]\nkind = biased\nt0 = 0.2\nm = 2\n", 6, "unexpected"),
        (sys3 + "[transition]\nm = 2\n", 6, "unexpected"),
        (sys3 + "[transition]\nkind = overshoot\nm = two\n", 7, "number"),
        (cross + "phi_kind = biased\nphi_t0 = 0.25\nphi_m = 2\n", 6, "phi transition"),
        (cross + "psi_m = 2\n", 6, "psi transition"),
        # a misspelt sigma used to load silently as the flat surface
        (sys3 + "sigm = y - x^2\n", 5, "unknown [system] key 'sigm'"),
        (sys3 + "dim = 2\n", 5, "unknown [system] key 'dim'"),
        (sys3 + "dim = two\n", 5, "unknown [system] key 'dim'"),
        (cross + "eta = 5\n", 6, "unknown [cross] key 'eta'"),
    ]
    for text, line, needle in cases:
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, text))
        assert needle in str(err.value)
        assert err.value.line == line


def test_non_finite_numbers_are_refused(tmp_path):
    # NaN fails every comparison, so each of these used to load: a NaN
    # t_end was never reached and a NaN epsilon reached manifold.json
    sys3 = "[system]\ncoords = x, y\nx_plus = 1, 1\nx_minus = 1, -1\n[run]\n"
    for line in ("t_span = 0, nan", "t_span = 0, inf", "epsilons = 0.1, nan", "etas = inf",
                 "x0 = nan, 0.5"):
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, sys3 + line + "\n"))
        assert "expected finite numbers" in str(err.value)
        assert err.value.line == 6
    for line in ("grid = -1:nan:5", "grid = nan:1:5", "grid = -inf:1:5"):
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, sys3 + line + "\n"))
        assert "grid bounds must be finite" in str(err.value)
        assert err.value.line == 6


def test_structural_errors(tmp_path):
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, "[transition]\nkind = smoothstep\n"))
    assert "[system] or [cross]" in str(err.value)

    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, "[system]\ncoords = x, y\nx_plus = 1, 1\n"))
    assert "x_minus" in str(err.value)

    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, FOLD + "\n[run2]\n"))
    assert "unknown section" in str(err.value)

    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.cfg")

    bad_x0 = FOLD.replace("x0 = 0, 1", "x0 = 0, 1, 2")
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, bad_x0))
    assert "x0" in str(err.value)


def test_transition_kinds(tmp_path):
    base = "[system]\ncoords = x, y\nx_plus = 1, 1\nx_minus = 1, -1\n"
    cfg = load_config(write(tmp_path, base + "[transition]\nkind = biased\nt0 = -0.25\n"))
    assert isinstance(cfg.transition, Biased)
    assert cfg.transition.t0 == -0.25

    cfg = load_config(
        write(tmp_path, base + "[transition]\nkind = custom\nexpr = t*(3 - t^2)/2 + 0.1*x*(1 - t^2)\n")
    )
    assert isinstance(cfg.transition, Custom)
    assert cfg.transition.x_names == ("x",)

    for text, needle in [
        (base + "[transition]\nkind = overshoot\n", "needs 'm'"),
        (base + "[transition]\nkind = biased\n", "needs 't0'"),
        (base + "[transition]\nkind = custom\n", "needs 'expr'"),
        (base + "[transition]\nkind = step\n", "unknown transition"),
        (base + "[transition]\nkind = overshoot\nm = 0.5\n", "transition"),
        (base + "[transition]\nkind = custom\nexpr = t/2\n", "transition"),
    ]:
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, text))
        assert needle in str(err.value)


def test_flat_sigma_passthrough(tmp_path):
    text = "[system]\ncoords = x, y\nsigma = y\nx_plus = 1, 2*x\nx_minus = 1, 2\n"
    cfg = load_config(write(tmp_path, text))
    assert classify_point(cfg.system, -0.5) == SigmaClass.SLIDING


def test_curved_sigma_normalization(tmp_path):
    # surface y = x^2; the fields cross it with relative normal speeds +-1,
    # so every point slides even though the raw y-components suggest sewing
    # away from the vertex
    text = (
        "[system]\n"
        "coords = x, y\n"
        "sigma = y - x^2\n"
        "x_plus = 1, 2*x + 1\n"
        "x_minus = 1, 2*x - 1\n"
    )
    cfg = load_config(write(tmp_path, text))
    for x in (-2.0, -0.3, 0.0, 1.7):
        ap, am = cfg.system.normal_components_on_sigma(x)
        assert ap == pytest.approx(1.0)
        assert am == pytest.approx(-1.0)
        assert classify_point(cfg.system, x) == SigmaClass.SLIDING


def test_curved_sigma_shifts_evaluation_point(tmp_path):
    # the rewritten fields must evaluate the originals at y + g(x)
    text = (
        "[system]\n"
        "coords = x, y\n"
        "sigma = y - x^2\n"
        "x_plus = 1, y\n"
        "x_minus = 1, -1\n"
    )
    cfg = load_config(write(tmp_path, text))
    # on the surface (new y = 0) the old y equals x^2: a_plus = x^2 - 2x
    ap, _ = cfg.system.normal_components_on_sigma(3.0)
    assert ap == pytest.approx(9.0 - 6.0)


def test_sigma_errors(tmp_path):
    base = "[system]\ncoords = x, y\nx_plus = 1, 1\nx_minus = 1, -1\n"
    for sigma, needle in [
        ("sigma = x - y", "sigma must be"),
        ("sigma = y + x", "sigma must be"),
        ("sigma = y - y^2", "may not involve"),
    ]:
        with pytest.raises(ConfigError) as err:
            load_config(write(tmp_path, base.replace("x_plus", sigma + "\nx_plus", 1)))
        assert needle in str(err.value)


def test_cross_section(tmp_path):
    text = (
        "[cross]\n"
        "x_pp = -1, -1, 1\n"
        "x_pm = -1, 1, 1\n"
        "x_mp = 1, -1, 1\n"
        "x_mm = 1, 1, 1\n"
        "phi_kind = biased\n"
        "phi_t0 = 0.5\n"
        "psi_kind = smoothstep\n"
    )
    cfg = load_config(write(tmp_path, text))
    assert cfg.system is None
    assert cfg.cross is not None
    assert isinstance(cfg.cross.phi, Biased)
    assert cfg.cross.phi.t0 == 0.5
    assert isinstance(cfg.cross.psi, Smoothstep)

    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, text.replace("x_mm = 1, 1, 1\n", "")))
    assert "x_mm" in str(err.value)
