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
        "d2615b9b7a7af18af6f8ef395a208b44440e4479a8bd70aec15ce8ecd9862807",
        "401e981f8545e1d9f866d1311472a1651d18891bacf0a62c0fc596a0df9b80a1",
    ),
    "modes": (
        ["modes", *F],
        "1d82fdc40268f6eced1261f1abbe19a20e9e52f5e3200490501b43ea94c2fac6",
        "17d8f2b76f99f0b6097b661b08805ff61db722df5a2851257ed19e5eca6cf6c5",
    ),
    "figure1": (
        ["figure1", *F],
        "18e0114842aeeca65aa731c9fd365bf70cc59fca0bf7fa528c75178cbc04dafe",
        "78bb50bd6457d995f88f3f6e20102b2bd9962b7fcf2b5250107a804fa4dee3ea",
    ),
    "bdg": (
        ["bdg", *F],
        "eb377c27a72748e5613829797e4cb77226e30f4a0fe98e1f4932fb7f0de6dd23",
        "85b70fb1d935b768c86fde74cbe5c474004b6da7ae6add987a6121272df9a6da",
    ),
    "dynamics": (
        ["dynamics", *F],
        "d2a2eddf35ffdccf23a29191f0b1f52835c3d794659a29884578c71e868b920c",
        "4204d628b8422cd0804ac203938e9cf6c25524dedd02e562ab57a62f4a7ec4b2",
    ),
    "protocol twopoint:80,120": (
        ["protocol", *F, "--init", "twopoint:80,120", "--m-max", "130", "--cycles", "800"],
        "021befbe1271fc5ab9e85371a208bb75e3015ea61e8aced242ce7ad0c27eaa6f",
        "ee5aa6451aa9b16dac5ad3a3e4559919de1ecaf9461c29ef8599311a376efd14",
    ),
    "protocol n0 = 300": (
        ["protocol", "--nbar", "300", "--n0", "300", "--grid-points", "1500", "--cycles", "200"],
        "4aad33c63fee68cb407e28bae2d83122b44a58559d8459b6c538e47082443621",
        "7cca9ba967f98b43ff436f5a60bc4f602082a6663a84e0aee6427092bd449dee",
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
