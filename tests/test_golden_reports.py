"""Golden CLI reports: exit code and stdout sha256 of fixed in-process runs.

Refactors must leave every report byte-identical; a changed digest here
means the rendered output changed, not just the code behind it.
"""

import hashlib

import pytest

from valuation_lab.cli import main

# The example valuation file from the README.
EXAMPLE_FILE = """\
{
  "valuations": [
    {"name": "cusp", "proximity": [[], [1], [2, 1]], "tangent_count": 2},
    {"maximal_contact": [6, 9, 34], "trailing_free": 6},
    {"tono": {"a": 4, "e": 1}}
  ],
  "aligned_mu": 2
}
"""

FUZZ = ["fuzz", "--max-points", "12", "--trials", "200", "--seed", "0"]

# (command, format, exit code, stdout sha256); "FILE" stands for the example.
GOLDEN = [
    (["family", "tono", "--a", "3", "--e", "0"], "table", 0,
     "1c6be01428055bd88fa93067cd8af81f68f363d608b2af61f2a42298ac11825a"),
    (["family", "tono", "--a", "3", "--e", "0"], "json", 0,
     "de784f40abc2757c036860a631257c0b835d5254a5b9c58d9a20779111ab5ba6"),
    (["family", "tono", "--a", "4", "--e", "1"], "table", 0,
     "4dd63308ae1213ec130605115797e51e0351f98455f7a013ac5ac88d560b970f"),
    (["family", "tono", "--a", "4", "--e", "1"], "json", 0,
     "07e777c329044749fb38ca72c7fda35e64d9e47e56aa8bd07c793d3803824718"),
    (["family", "tono", "--a", "5", "--e", "3"], "table", 0,
     "a528d3d7dc402338c3bf4e48d0946243c0f908a1ecb3a8ded265bfc48807b7d0"),
    (["family", "tono", "--a", "5", "--e", "3"], "json", 0,
     "a20af65e285e86187adeebaae702f9945dd7eb8ed90f43fbbda08851d08361c1"),
    (["invariants", "FILE"], "table", 0,
     "4be78b888ded9cd6c3e30d41816f9b67330d0ed53951ead3e18b676f9f8d0b1f"),
    (["invariants", "FILE"], "json", 0,
     "474667a4c4edf78aed0d1c5d3e40885df6a50e30a39f21337bd34d03723e18d0"),
    (["bounds", "FILE"], "table", 0,
     "9ecf589dc6f746d584f1aac0388106cebfd41e3e023a6a88f4ea40d288e75268"),
    (["bounds", "FILE"], "json", 0,
     "ec8fd029492a4924e8a9c073e9b821b36f4a8be069bdab4ec60cc9c704434a9d"),
    (["check", "FILE"], "table", 0,
     "02a28c53a7ad1c93353910e8e3ebd1716e92486a4e4ea0988902f045d6f5f207"),
    (["check", "FILE"], "json", 0,
     "a3d5d47f3fbdf191e2135eb8fafbfdab9ca4f99e7c79349625202c3283a48d0d"),
    (FUZZ, "table", 0,
     "ce2658ab4e1022b778daca7c1176a539d4a77eb1b6cbcaf2eb0f1ea1b44fe425"),
    (FUZZ, "json", 0,
     "713325643253bd1ea93d31881e5c442d72fa5f504d730d1f6fb874d48507d2c6"),
]


@pytest.mark.parametrize(
    "command, fmt, code, digest",
    GOLDEN,
    ids=[f"{' '.join(c)} {f}" for c, f, _, _ in GOLDEN],
)
def test_report_is_byte_identical(tmp_path, capsys, command, fmt, code, digest):
    path = tmp_path / "example.json"
    path.write_text(EXAMPLE_FILE, encoding="utf-8")
    argv = ["--format", fmt] + [str(path) if x == "FILE" else x for x in command]
    assert main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
