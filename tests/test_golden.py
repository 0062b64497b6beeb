"""Byte-golden CLI outputs: SHA-256 of the --output CSV and its JSON sidecar.

A refactor that is meant to leave every printed number as it was must keep
these digests.  A change that moves a digit on purpose records the new
digest here and says why in CHANGES.md.  The seven inputs print the same
bytes at 1 and at 2 BLAS threads.
"""

import hashlib

import pytest

from bogodense.cli import main

F = ["--nbar", "100", "--n0", "100", "--grid-points", "1500"]

GOLDEN = {
    "ground --tf": (
        ["ground", *F, "--tf"],
        "28459bfebf63ff9c985b25609be5a9390a1155720ea56c8d5e6aaeaf39cd8ce4",
        "cab2be8da245dfbf050f3f227a126863bef6ec98d93bcfd3deff2da8a63719b9",
    ),
    "modes": (
        ["modes", *F],
        "b488511c43fee80737be2d16096042e079936dcb295f10b2824aefb4ca28b655",
        "ebe535343ca2d576df7b9ef035eacabc72195fe7940f7bb581efaa0e9891b6a9",
    ),
    "figure1": (
        ["figure1", *F],
        "7b04aa5cf34ec322de07b2e4e14d205fd67e3ca28cd4e621bd3bc313e5fbd741",
        "1882f5d166f5faa750332a3d58abba67dac230615157d2f3ec820a9897b7fcaf",
    ),
    "bdg": (
        ["bdg", *F],
        "3cb151b449d05ac1952e44f51910435186f1e443855947ad4e361f4d275dfb93",
        "c69b4d9f6e22f8fa0f6c696584a31c72ad09c1be47557f51177d859744737a3b",
    ),
    "dynamics": (
        ["dynamics", *F],
        "ca5a65bb420beeb2efbf1ceecdcf7e7f6a5c8b6d3df9b221a6b85e421f104012",
        "a941a5e749b73998781ffbdc4af836b46fd9ff1a9617f874460c5579a194044c",
    ),
    "protocol twopoint:80,120": (
        ["protocol", *F, "--init", "twopoint:80,120", "--m-max", "130", "--cycles", "800"],
        "8f2d679ac12fbc558abe5334e6600d0c27cc87d701f7519bdfa1e63a457bf2f7",
        "91f47bcceb72fa774cb3c0f877b472cf3ea630e6464eaa8671fae855ac8adbfe",
    ),
    "protocol n0 = 300": (
        ["protocol", "--nbar", "300", "--n0", "300", "--grid-points", "1500", "--cycles", "200"],
        "e74dd10499e7acc9c5e2b73af22fb6658f914c0ed0dedce4bdb2b2b81b4018ad",
        "4971dcd89e47e0899be2feba11df88d195561522a04d32100be7f10cc5b2b25c",
    ),
}


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", GOLDEN)
def test_output_bytes_match_golden(name, tmp_path, capsys):
    argv, csv_digest, json_digest = GOLDEN[name]
    out = tmp_path / "out.csv"
    assert main([*argv, "--output", str(out)]) == 0, name
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "", name
    assert _digest(out) == csv_digest, f"{name}: CSV bytes changed"
    assert _digest(tmp_path / "out.json") == json_digest, f"{name}: JSON bytes changed"
