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

CASES = {
    "fold_smoothstep": (FOLD + RUN, ["all"]),
    "fold_biased": (FOLD + "\n[transition]\nkind = biased\nt0 = 0.3\n" + RUN, ["all"]),
    "fold_overshoot": (FOLD + "\n[transition]\nkind = overshoot\nm = 2\n" + RUN, ["all"]),
    "fold_custom": (
        FOLD + "\n[transition]\nkind = custom\nexpr = (3*t - t^3)/2 + x*(1 - t^2)^2/4\n"
        + RUN.replace("-1:1:41", "-1:1:21"),
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
        "certificates.json": "c36ddf39568cedea1d9dc6af49a902df8bb55edf640f643093d1633e82038d3d",
        "classification.json": "141f426a9bbd1a9473b1b8a5ae4d81d32715ad1415df7b9adedb37f6afb4203c",
        "manifold.json": "e22f5a8221aff52626f787c34ea8426bc634ff9a0eb01cff477b8e5d6e424c0b",
        "slowfast.csv": "4760e11f6085107b446f3a1287f3db48972105edfedc7b91581ed41719ab5566",
        "trajectory.csv": "5e0d6a99965870fb1b396a435a884e6a158c6e79928d7fc09ac96e677d0f2ba2",
    },
    "fold_biased": {
        "certificates.json": "6aa8301aec635c47fb7978915426a9d9239deb82b64eec3ff4de0a0855d1b4d6",
        "classification.json": "16f9106b637905dce83179d1dcedd55adea46194040475dfc4234af52e2e4766",
        "manifold.json": "b923294a2139f5ee5677a70e2bed70ab34829a5d9ddef1065c49f8d692bbd3d6",
        "slowfast.csv": "4e44b526e75615292b0adf844e23ce6db1725718d291b90e5fcfea6fd394805c",
        "trajectory.csv": "2434629676709a1218439fdef232264f07e4086244de60a8057226c6278788fd",
    },
    "fold_custom": {
        "certificates.json": "7c039e6c8b907d76adf1c9d54b8d5258c3fa064a7db2b973f270fa998f549d16",
        "classification.json": "24c3f2752111edf4e9d8b1bb53804342cff57497a5d03999d00378a89773e870",
        "manifold.json": "c183d6eb1195f5bd50b62986b2709c7b2a6583758af3e43c92afee4d4a126864",
        "slowfast.csv": "ba00c4d8d579414481a50665f8c134f05aeb70dbc3fff84b6b54016df8fd3010",
        "trajectory.csv": "2434629676709a1218439fdef232264f07e4086244de60a8057226c6278788fd",
    },
    "fold_overshoot": {
        "certificates.json": "c3df20ff363481cfabf56b007f4bf79c4f8de4ac53453293f620f5519faab592",
        "classification.json": "609a2a231e749bfa2533c2aff618a63bba80f970501b7f10904d308c20b23b19",
        "manifold.json": "f5e9bf4712bf488f873f9b7c688b76687589b7a29b8656e170961a8d34424cef",
        "slowfast.csv": "cf3eb47d52514757aca5242872fff0c1448b8167b7d9900f5eef3e0ae994e896",
        "trajectory.csv": "2434629676709a1218439fdef232264f07e4086244de60a8057226c6278788fd",
    },
    "fold_slide_exit": {
        "trajectory.csv": "b060ce5286050e5a5912310404ccae0959ea3a7b815b8d0e6786864bcac53d8d",
    },
    "fold_smoothstep": {
        "certificates.json": "de89f6385e5ccc3dfdeab3638af9654e38e0786d9071792f8a273fe34abd37d7",
        "classification.json": "b0842f588e2e81117b5d51bd1c54db149e57f61a4d7b5a821d998b4936b15055",
        "manifold.json": "666ba8eeb72bb7aa1a95c89d2431bbfc6f8527f61c402a9104e216612356d092",
        "slowfast.csv": "2ebab8c8894e68f53a8d17976415f670286d797cd63181187236e17850679380",
        "trajectory.csv": "2434629676709a1218439fdef232264f07e4086244de60a8057226c6278788fd",
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
        "trajectory.csv": "cbd2119b312d0423f7c063a179f155ec3a95899e07d95e75f3a499df164eb444",
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
