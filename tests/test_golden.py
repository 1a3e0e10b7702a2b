"""Byte-level regression test for the command line artifacts.

Each case runs the CLI on a small-grid config and compares the sha256 of
every artifact it writes with a digest recorded from an earlier version of
the tool.  The overshoot case is covered too: its calibration constant
comes from a closed form (Ferrari's resolvent), not from a numerical search.

To re-record after an intended output change, run
``python tests/test_golden.py`` and paste the printed table into GOLDEN.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

import pytest

from filippov.cli import run_command

FOLD = """\
[system]
coords = x, y
x_plus = 1, 2*x
x_minus = 1, 2
"""

RUN = """
[run]
grid = -1:1:41
epsilons = 0.1, 0.05
x0 = -1, 0.5
t_span = 0, 1.5
"""

ROTATION_3D = (
    "[system]\ncoords = x1, x2, y\nx_plus = -x2, x1, -1\nx_minus = -x2, x1, 1\n"
    "\n[run]\nx0 = 1, 0, 0\nt_span = 0, 3.141592653589793\n"
)

CROSS = """\
[cross]
x_pp = -1, -1, 1
x_pm = -1, 1, 1
x_mp = 1, -1, 1
x_mm = 1, 1, 1
phi_kind = biased
phi_t0 = 0.25
psi_kind = smoothstep

[run]
epsilons = 0.1, 0.05
etas = 0.2, 0.1
"""

PIVOT = FOLD.replace("2*x", "1000*x") + "\n[run]\nx0 = -1, 0.5\nt_span = 0, 3\n"

CASES = {
    "fold_smoothstep": (FOLD + RUN, ["all"]),
    "fold_biased": (FOLD + "\n[transition]\nkind = biased\nt0 = 0.3\n" + RUN, ["all"]),
    "fold_overshoot": (FOLD + "\n[transition]\nkind = overshoot\nm = 2\n" + RUN, ["all"]),
    "fold_custom": (
        FOLD + "\n[transition]\nkind = custom\nexpr = (3*t - t^3)/2 + x*(1 - t^2)^2/4\n"
        + RUN.replace("-1:1:41", "-1:1:21"),
        ["all"],
    ),
    # psi = cubic + (0.5 + 0.3x)(1 - t^2)^2 is monotone for x < -5/12 and
    # peaks inside the band above it
    "fold_custom_bump": (
        FOLD + "\n[transition]\nkind = custom\n"
        "expr = (3*t - t^3)/2 + (0.5 + 0.3*x)*(1 - t^2)^2\n" + RUN.replace("-1:1:41", "-1:1:21"),
        ["all"],
    ),
    "curved": (
        "[system]\ncoords = x, y\nsigma = y - x^2\nx_plus = 1, 1\nx_minus = 1, 3\n"
        + RUN.replace("x0 = -1, 0.5", "x0 = 0, -0.5"),
        ["all"],
    ),
    "regularized": (
        FOLD + RUN,
        ["integrate", "--mode", "regularized", "--epsilon", "0.1", "--from=-1,1"],
    ),
    # hybrid orbits: sew through, slide then exit at the fold, slide in 3-D
    "sewing": (
        "[system]\ncoords = x, y\nx_plus = 1, 1\nx_minus = 2, 1\n"
        "\n[run]\nx0 = 0, -0.5\nt_span = 0, 1\n",
        ["integrate"],
    ),
    "fold_slide_exit": (FOLD + "\n[run]\nx0 = -0.5, 0\nt_span = 0, 1\n", ["integrate"]),
    "rotation_3d": (ROTATION_3D, ["integrate"]),
    "cross": (CROSS, ["cross"]),
    # the stage LU exchanges rows on these orbits, in 5 of 324 attempts and 5 of 24
    "pivot_regularized": (PIVOT, ["integrate", "--mode", "regularized", "--epsilon", "0.01"]),
    "pivot_hybrid": (PIVOT, ["integrate"]),
    # all on a non-planar system and on a [cross]-only config: one artifact each
    "rotation_3d_all": (ROTATION_3D, ["all"]),
    "cross_all": (CROSS, ["all"]),
}

GOLDEN = {
    "cross": {
        "cross.json": "dfd2adb66bbd0ca50da0b7bbcf3ef057e8df20a501f3899c2d1ace554fe3a5ee",
    },
    "cross_all": {
        "cross.json": "dfd2adb66bbd0ca50da0b7bbcf3ef057e8df20a501f3899c2d1ace554fe3a5ee",
    },
    "curved": {
        "certificates.json": "642fcc9bc245e2fef60b500a9388803dfaf747a7b47b14275495a359a1843cf3",
        "classification.json": "9829726f3f6924c503c4daa682b5954fbd6af479ff024f5b65d83d771b8320e3",
        "manifold.json": "e22f5a8221aff52626f787c34ea8426bc634ff9a0eb01cff477b8e5d6e424c0b",
        "slowfast.csv": "4760e11f6085107b446f3a1287f3db48972105edfedc7b91581ed41719ab5566",
        "trajectory.csv": "68741d3f4a6128889dd2d007ff83e34a93443b6e73d2d43501c2f151d25db80c",
    },
    "fold_biased": {
        "certificates.json": "b6bc990647c121d0d556e005cd063d08a2c2624f366537e1db14836294b5ad66",
        "classification.json": "d25ef2034ee154147ebb49cfd6b5d4e726a839f625ff43d12002e84823092dc4",
        "manifold.json": "b923294a2139f5ee5677a70e2bed70ab34829a5d9ddef1065c49f8d692bbd3d6",
        "slowfast.csv": "4e44b526e75615292b0adf844e23ce6db1725718d291b90e5fcfea6fd394805c",
        "trajectory.csv": "6118201f26757f23427ad4a93990e6b536a7e461eafd77c18f4199f453f067f6",
    },
    "fold_custom": {
        "certificates.json": "0ac02f77fee1be4517061f2c2a85373990f8325899b1e98bcde3feaa51147b4a",
        "classification.json": "bcbd10cefadde8d876774b87962aa477091e55dff360b8d9ab7bd7f45f41beae",
        "manifold.json": "440c2e6dbbb6e062e18e5312af74b0edfefcff9a5a8bca232b908b2620344f38",
        "slowfast.csv": "e20b01ae01118980dec62de289b3346537b3f5e9a192f31fb3cc60f58faf8dd3",
        "trajectory.csv": "6118201f26757f23427ad4a93990e6b536a7e461eafd77c18f4199f453f067f6",
    },
    "fold_custom_bump": {
        "certificates.json": "1c0e2d5e6297066d1ffe99695083050661bbc187c55fa7759c8bdda2aa0ec49a",
        "classification.json": "1aa6b329753b7d463b1e7dcb3ebc937472055c3afd611d8ec6b548dd76dfc434",
        "manifold.json": "585815762befdfa2c1a165dcb2e2d5b619ecf91099c9adb5cea4c3ef84751d6e",
        "slowfast.csv": "27924e78b8faffdb40f000d7fab72b55c1cab7ebbded80961f04cd89a189b08a",
        "trajectory.csv": "6118201f26757f23427ad4a93990e6b536a7e461eafd77c18f4199f453f067f6",
    },
    "fold_overshoot": {
        "certificates.json": "6b8f6c903170e8cab0c977b8c3c790f279f2847787d2588494f4cc56982c1747",
        "classification.json": "c510ce40eb313ceb117a422bc8111aae0e6db655e78f80210e80fbcf6f07b478",
        "manifold.json": "a2f58802d27e23720fe837d6677edb26409b1cf1f2277633995a8092ec75040c",
        "slowfast.csv": "6e5d861a0b3deb0f532850c378aaed657b7bc863710c0ab3517b2ab7a7ed7fdf",
        "trajectory.csv": "6118201f26757f23427ad4a93990e6b536a7e461eafd77c18f4199f453f067f6",
    },
    "fold_slide_exit": {
        "trajectory.csv": "86dd001cf28f43b50b817430724978d8e4eb9f52deb08378987fd4fa41bf9c13",
    },
    "fold_smoothstep": {
        "certificates.json": "d024e36ec11c719948e68f3084be851bf10c1d6b5d625a407ecee3f81dc81eb6",
        "classification.json": "c7cf8c9b12b56e85b194352318afcb4384a4f26fdca284b92315e59c7a0793bc",
        "manifold.json": "666ba8eeb72bb7aa1a95c89d2431bbfc6f8527f61c402a9104e216612356d092",
        "slowfast.csv": "2ebab8c8894e68f53a8d17976415f670286d797cd63181187236e17850679380",
        "trajectory.csv": "6118201f26757f23427ad4a93990e6b536a7e461eafd77c18f4199f453f067f6",
    },
    "pivot_hybrid": {
        "trajectory.csv": "7f14d756dbd2a5f22ec600d8b5dec4349e496dc0b4b03ece52e4f3cae10d95dc",
    },
    "pivot_regularized": {
        "trajectory.csv": "bde10003730a67d5c70ab643aa4c89964aae3147ffb086f538755ba1895b9f40",
    },
    "regularized": {
        "trajectory.csv": "1c42648d26bbc2e63a51596de7ac7036891a1898de68b6db64cf719fa86306e6",
    },
    "rotation_3d": {
        "trajectory.csv": "0c51309663bfb1984154111c002d9dafdb3fc40ba7a00559a8c70026e24a3488",
    },
    "rotation_3d_all": {
        "trajectory.csv": "0c51309663bfb1984154111c002d9dafdb3fc40ba7a00559a8c70026e24a3488",
    },
    "sewing": {
        "trajectory.csv": "0e2be83f9674822096dc0a79d90171602323e7055ef09009c275cce1a733cc9e",
    },
}


def digests(name: str, workdir: Path) -> dict[str, str]:
    text, args = CASES[name]
    cfg = workdir / f"{name}.cfg"
    cfg.write_text(text)
    out = workdir / name
    rc = run_command([args[0], "--config", str(cfg), "--out", str(out), *args[1:]])
    assert rc == 0, f"{name}: exit code {rc}"
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifacts_match_recorded_digests(name, tmp_path):
    assert digests(name, tmp_path) == GOLDEN[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = {name: digests(name, Path(tmp)) for name in sorted(CASES)}
    sys.stdout.write("GOLDEN = {\n")
    for name, files in table.items():
        sys.stdout.write(f"    {name!r}: {{\n")
        for file, digest in files.items():
            sys.stdout.write(f"        {file!r}: {digest!r},\n")
        sys.stdout.write("    },\n")
    sys.stdout.write("}\n")
