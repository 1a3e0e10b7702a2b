"""Byte-level regression test for the command line artifacts.

Each case runs the CLI on a small-grid config and compares the sha256 of
every artifact it writes with a digest recorded from an earlier version of
the tool.  Overshoot configs are left out: their calibration constant is a
floating-point root, so their last digits may legitimately move.

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
        "certificates.json": "6f611c387b80dda56760bd0b165c0e46c9b573dd68b33a370981bdbb60730f22",
        "classification.json": "8722e715bf3bf6e0ae18238382f0c6e95038c2ca1f0edfe1394d468e5800c6aa",
        "manifold.json": "77a98417c9fe79fbb59270d222aef4d10eeb948695b99d6432937858c05afe4f",
        "slowfast.csv": "877589863963cc9c39a269f2bd0d2fc11e47feaf01b8f24b9b9cc07938048f95",
        "trajectory.csv": "d96c0bc4608d2bd3103e087b61a993983f89e6cc770f47ae4daa15c383ee0db4",
    },
    "fold_biased": {
        "certificates.json": "ce5a4083b713f7cfe0e6d7828f5c0a0aeeafe98d030065095651a8efd69d2112",
        "classification.json": "00e8f1bbdf76acf5c3fb56c86a52b655d3b6a3c037aced42c4fd6f84109c137b",
        "manifold.json": "25aa35e41be1ff6e0579c2ab94d0b283763aff8a2c79b51a018728061bafe108",
        "slowfast.csv": "ae22de3a13c24d889612d80e8f1e7e9368e9b37875a1c9f1050c811c87ed6c91",
        "trajectory.csv": "4c4b7c15be53abe19cd63bd20a61d24b168114cd36bb315470a2c8ef7d8c40c6",
    },
    "fold_custom": {
        "certificates.json": "9e202145cec0b1a70472dda63490d96b035d288fd83eff7f79f525de7ebee2db",
        "classification.json": "88c2d50dbb9bf8965cfd8302dfa4bde2c2049154f1d1d7a1c8350a180e004f90",
        "manifold.json": "b30cba36fde0b4ff268ecaa7fc73575cb0e377f3c471ca26a91c011a2d1d1933",
        "slowfast.csv": "2c07d6c24b5f8b8b7c7262cb0e0ee3159e429c92f15f95ebbc5cf5a94ac5689a",
        "trajectory.csv": "4c4b7c15be53abe19cd63bd20a61d24b168114cd36bb315470a2c8ef7d8c40c6",
    },
    "fold_slide_exit": {
        "trajectory.csv": "12240eb1eb1078403554777799fcd56406423577819577e3ec4619c3ae7bcc9a",
    },
    "fold_smoothstep": {
        "certificates.json": "9c916a6b352267ef74c0cbda15c1acef101564afc0eca35178f60af0b958986e",
        "classification.json": "8bf9f4973e1b7ed0b1f20d66cd114fba20c607f574d1e5def09bed6516871868",
        "manifold.json": "11d828a1664e9230b7f0d7a14e53f577a8563050c7d677162ddc8504ecad0d9a",
        "slowfast.csv": "10359e6c6252562bfd03a7e4a19fdf873131a03e53483371c429d57de900739c",
        "trajectory.csv": "4c4b7c15be53abe19cd63bd20a61d24b168114cd36bb315470a2c8ef7d8c40c6",
    },
    "regularized": {
        "trajectory.csv": "dbb9bd846f0d62e2b8145d44ae8bd3e47f958c545289317d6dfed3a0ba2237ca",
    },
    "rotation_3d": {
        "trajectory.csv": "4eff1a3f760784f941147af8b86b66e2e5b9f79a1290f24abedd78281ce3ddb2",
    },
    "rotation_3d_all": {
        "trajectory.csv": "4eff1a3f760784f941147af8b86b66e2e5b9f79a1290f24abedd78281ce3ddb2",
    },
    "sewing": {
        "trajectory.csv": "0c59d386f4dca855499cdcc2a0cb081eece6e30b60cae29efede3fbb9689c828",
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
