"""Golden bytes: the sha256 of generated files, pinned across versions.

A seed names a dataset, so a change to the generator that alters one output
byte is a regression even when every property test still holds. The digests
below were recorded from the CLI; criterion 2 only compares repeated runs of
one version with each other.
"""

import hashlib

import pytest

from wsngen.cli import EXIT_OK, main
from wsngen.report import reconstruct_reference_chain

CLI_CASES = [
    ("deploy-grid-csv", ["deploy", "--seed", "43", "--mode", "grid", "--nodes", "102"],
     "1ae60498333f9d6e102dcb09cfa888be2d9db4664c5ae7d5409e1eb5b0fd7356"),
    ("deploy-grid-json", ["deploy", "--seed", "43", "--mode", "grid", "--nodes", "102",
                          "--format", "json"],
     "3e47ba0bb92d24cd47a2f78b7d9a8413c3425f52606b3bdcc383ff9965e4ff5c"),
    ("deploy-nongrid-csv", ["deploy", "--seed", "7", "--nodes", "250", "--area", "57.3"],
     "f0d73fc189fde92c1bfef50c72c8571f530461e963f1c29ddc6680226d00dd3b"),
    ("deploy-nongrid-json", ["deploy", "--seed", "7", "--nodes", "250", "--area", "57.3",
                             "--format", "json"],
     "a7ba7ef6dafdb91d5df5b714a2cf8cee210938cbb0a1bd3ea424b10be25931f8"),
    ("deploy-grid-yc-csv", ["deploy", "--seed", "12", "--mode", "grid", "--y-increment", "c"],
     "9ddd995802b45acdc421bf4917956aa9218d665216c3bfb09929ae38df5d0db4"),
    ("deploy-nongrid-yc-json", ["deploy", "--seed", "29", "--y-increment", "c",
                                "--format", "json"],
     "9ac98f59b0b14345d1f72023215c7de2232509de0b2289cbca88659e4c228bda"),
    ("traffic-uniform-csv", ["traffic"],
     "a99ee41db2bad7e4bf17e23ff517dca248a6fa4bebbda77e4cd804afc1b53463"),
    ("traffic-uniform-json", ["traffic", "--format", "json"],
     "f38c8f807e18c826335acb4bfe8f9eedb8ae6a197437c81e77f0871e0b4d9bcd"),
    ("traffic-exp-transform-csv", ["traffic", "--dist", "exp-transform", "--lambda", "0.5"],
     "290318e9aaee830cd67723a0a043da5b12c1fdd344b24ee22f8fc9909cdef863"),
    ("traffic-exp-transform-json", ["traffic", "--dist", "exp-transform", "--format", "json"],
     "c6c15662be24a2d84d10e311ad9680c0588aef1bcb8f87f3d0f941d9b9bd8241"),
    ("traffic-exp-recurrence-csv", ["traffic", "--dist", "exp-recurrence", "--nodes", "33",
                                    "--slots", "7"],
     "0c0c1b700481f9e269acdfbbc1b6ce2acccf89fb912557fb8e8794b0e2346957"),
    ("traffic-exp-recurrence-json", ["traffic", "--dist", "exp-recurrence", "--format", "json"],
     "5fe8b2e04b72889a0afad85ee225252a2d3b6394b6114b8f5066bdc9d2a9cf41"),
    ("traffic-uniform-fractional-csv", ["traffic", "--pmin", "1.5", "--pmax", "7.25",
                                        "--nodes", "41", "--slots", "3"],
     "66679257fcbecf8e49b5422003d2a16207b2b107c4de20ebcdb1d3045e5260d6"),
    ("traffic-exp-transform-fractional-json", ["traffic", "--dist", "exp-transform",
                                               "--pmin", "0.25", "--pmax", "13.5",
                                               "--lambda", "2.5", "--format", "json"],
     "a494422717c4f357495ff815d2e8e5dee39cecec623040c31ebf2b1c1b977de4"),
    # graph exports: --out is the edge list, in either format
    ("analyze-csv", ["analyze", "--seed", "5", "--nodes", "200", "--tr", "12"],
     "279dfeee4741d723b0f79ab029dd618cad4a51193785b2aa9c3c57e96385380c"),
    ("analyze-json", ["analyze", "--seed", "5", "--nodes", "200", "--tr", "12",
                      "--format", "json"],
     "94a7b22ea83b871afe3ab6127bf25544ae5c4e57cf6841b3f2d567e8897a8568"),
    ("analyze-grid-epsilon-json", ["analyze", "--seed", "9", "--nodes", "40", "--mode", "grid",
                                   "--tr", "20", "--epsilon", "0.5", "--format", "json"],
     "6c25d344ffa66dde22313b5e1f29928b113a86a4188d462967f7bc7afa985acc"),
    ("analyze-no-edges-csv", ["analyze", "--nodes", "3", "--tr", "0.001"],
     "38128db733784d8171a252d1ffab6c3f9c5b48ce99462b75f80febc63df7f251"),
    ("analyze-no-edges-json", ["analyze", "--nodes", "3", "--tr", "0.001", "--format", "json"],
     "e48518885199f20122ef1f4b9fc9b2c5e54255b509acee31344de9a0606ab3d0"),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name, argv, expected", CLI_CASES, ids=[c[0] for c in CLI_CASES])
def test_cli_output_bytes_are_pinned(name, argv, expected, tmp_path, capsys):
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert _sha256(out.read_bytes()) == expected


# validate reports carry raw statistics, so their bytes also pin the order of
# every float reduction in the battery; the exit code is pinned alongside
VALIDATE_SUBJECTS = {
    "deployment": ["--seed", "3", "--nodes", "240", "--mode", "grid"],
    "traffic": ["--in", "traffic.csv"],
}
VALIDATE_CASES = [
    ("deployment", "json", 2, "3ecfef07923402ef5f0cb7e0bc5ccf74a53ea0087add5f10d6f114a9fe693f00"),
    ("deployment", "text", 2, "b221ea72da4da509a63dcd0a352c8074a9bc1a67c5de1fb0526a658f8d42275c"),
    ("traffic", "json", 0, "f904a23a912117abd31faa3a0c29342ec9d766daa10e1df64ee72b5b556861da"),
    ("traffic", "text", 0, "1b69062f1dfa0c642bf06f1511e11a69bc942f85ec973796a7089664d47d83f4"),
]


@pytest.mark.parametrize("subject, fmt, code, expected", VALIDATE_CASES,
                         ids=[f"validate-{c[0]}-{c[1]}" for c in VALIDATE_CASES])
def test_validate_report_bytes_are_pinned(subject, fmt, code, expected, tmp_path,
                                          monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["traffic", "--out", "traffic.csv"]) == EXIT_OK
    out = tmp_path / "report"
    argv = ["validate", *VALIDATE_SUBJECTS[subject], "--format", fmt, "--out", str(out)]
    assert main(argv) == code
    capsys.readouterr()
    assert _sha256(out.read_bytes()) == expected


def test_reconstructed_chain_floats_are_pinned():
    # repr gives each float's shortest round-trip form, so the digest pins every bit
    chain = reconstruct_reference_chain()
    assert _sha256(repr(chain).encode()) == "addfe4a5c56a28bb1cb4a1dfed2528b00d8d01ce83c225ea6d012f6e95ed086e"
