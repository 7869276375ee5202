"""Golden CLI reports: exit code and stdout sha256 of fixed in-process runs,
and the full text of a fuzz failure report, which no passing run shows.

Refactors must leave every report byte-identical; a changed digest here
means the rendered output changed, not just the code behind it.
"""

import hashlib
import json

import pytest

import valuation_lab.checks as checks
from valuation_lab.checks import CheckResult, random_configuration, trial_rng
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
     "e176571b607f9308cdba0f553b411566e6a113ab5c4c1877dc51d00764ccfd3c"),
    (["family", "tono", "--a", "3", "--e", "0"], "json", 0,
     "33da57301d11ab5f6d835d10c0609630b653fc2694bcde7d31ac912ba468a19a"),
    (["family", "tono", "--a", "4", "--e", "1"], "table", 0,
     "ca38aeee72290bd2dcdb53cebe0c37bf11047f105aac2480ff7b97c90c3bfd8e"),
    (["family", "tono", "--a", "4", "--e", "1"], "json", 0,
     "54a0d44db5b04ac799a6e7b95e71dffa1a122569fd49a2de2269af32274e9b8e"),
    (["family", "tono", "--a", "5", "--e", "3"], "table", 0,
     "58f12a497d32ee9db38f8e4ca31cbfb1781ec3d91a5b98edd51873fd96cbbc4d"),
    (["family", "tono", "--a", "5", "--e", "3"], "json", 0,
     "fdf547b5e2ddf5e01de4cbc33ca00a41f82c4a8aadb999b1c270db217ff16e36"),
    (["invariants", "FILE"], "table", 0,
     "bec2867ee90b62afd3ae5e9e929997880ec4d3f4dcd8f5917414577a7f473419"),
    (["invariants", "FILE"], "json", 0,
     "7dcf29524b6d88d692fb919966747bb3c7d0caddfa1e7d14beebf5b51e9318fa"),
    (["bounds", "FILE"], "table", 0,
     "9ecf589dc6f746d584f1aac0388106cebfd41e3e023a6a88f4ea40d288e75268"),
    (["bounds", "FILE"], "json", 0,
     "5c0f58b52cee4037693d0b71560af63f4a08e7b962204d883e9655e7ed6e5124"),
    (["check", "FILE"], "table", 0,
     "8fb92a94f850f5f2273ec8459979232bf5af10d4836166cf530bb0bf2975c82e"),
    (["check", "FILE"], "json", 0,
     "22c20faa46b3ab6b2cbccbd2755890d7b3b61ffd380a612f5fa96ee52d7e829e"),
    (FUZZ, "table", 0,
     "ac5ba50a1f32467c2b25eadcb4bfa8bda09c4b546942742f6153d2e66d2e793e"),
    (FUZZ, "json", 0,
     "aa52e44a44975e3bf8cb10545a38fd247ca78e02a5319c25359943d2d0c314ba"),
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


# A file of many blocks and long contact values: twelve seeded chains of up
# to 200 points (genus up to 40), a Fibonacci pair of 30 digits, whose
# Euclid expansion gives 144 runs, and a chain of genus 4 with 30- to
# 32-digit contact values over about 10**28 points.
HIGH_GENUS_CONTACT = [
    {"name": "fibonacci", "maximal_contact": [
        898923707008479989274290850145, 1454489111232772683678306641953,
    ], "trailing_free": 3},
    {"maximal_contact": [
        633825300114114700748351602688, 950737950171172051122527404032,
        2297616712913665790212774559744, 9279598534483210540643835183104,
        74246691796179967367349874458625,
    ], "trailing_free": 5},
]


def high_genus_file() -> str:
    entries = []
    for i in range(12):
        cfg = random_configuration(trial_rng(7, i), 200)
        entry = {"proximity": cfg.proximity_lists(), "tangent_count": cfg.tangent_count}
        entries.append({"name": f"chain-{i}", **entry} if i % 3 == 0 else entry)
    return json.dumps({"valuations": entries + HIGH_GENUS_CONTACT})


HIGH_GENUS_GOLDEN = [
    ("invariants", "table",
     "5fde9b581031cbc7c7226e4d98a09c423e59d6c685a5e4255a6dfc919e21ede1"),
    ("invariants", "json",
     "d89b7ff6f80417460cd48400a82327b981cf0de8e4bf31158ad1e25b29fd5f75"),
    ("bounds", "table",
     "fd6a297f4e46d5b973c6645f11e54cb8ec055cea11af7e8782726e19ae08daa2"),
    ("bounds", "json",
     "4fa4f0007ff318e21dca5578cf86f21e4670bd3d8902019ae29e771f56abe4b7"),
    ("check", "table",
     "0f715dc84040b770137b9687cce85ddf31aeceb75311ad8b61fc6f0fb6bd7f76"),
    ("check", "json",
     "2091bf84de9179ca5539d253c92dd6fd9035121143fd2fe801a724fb2395a101"),
]


@pytest.mark.parametrize(
    "command, fmt, digest",
    HIGH_GENUS_GOLDEN,
    ids=[f"{c} {f}" for c, f, _ in HIGH_GENUS_GOLDEN],
)
def test_high_genus_report_is_byte_identical(tmp_path, capsys, command, fmt, digest):
    path = tmp_path / "high-genus.json"
    path.write_text(high_genus_file(), encoding="utf-8")
    assert main(["--format", fmt, command, str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# A stub suite fails the first row of every chain with a satellite; the
# report of its first failure, in each format, byte for byte.
FUZZ_FAILURE = ["fuzz", "--max-points", "6", "--trials", "5", "--seed", "1"]
FAILURE_PROXIMITY = "[[], [1], [2], [2, 3], [2, 4], [2, 5]]"
FAILURE_TABLE = f"""\
trials: 5 (max points 6, seed 1)
checks passed: 20
checks failed: 3
first counterexample: trial 0, check proximity-equalities
  proximity: {FAILURE_PROXIMITY}
  tangent_count: 3
"""
FAILURE_JSON = (
    '{"checks_failed": 3, "checks_passed": 20, "command": "fuzz", '
    '"first_failure": {"check": "proximity-equalities", "detail": "%s", '
    f'"proximity": {FAILURE_PROXIMITY}, "tangent_count": 3, "trial": 0}}, '
    '"max_points": 6, "seed": 1, "trials": 5}\n'
)


@pytest.mark.parametrize("detail", ["injected", ""])
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_fuzz_failure_report_is_pinned(monkeypatch, capsys, fmt, detail):
    real = checks.identity_checks

    def failing(bundle):
        results = real(bundle)
        if bundle.cfg.structure.stretches:
            results[0] = CheckResult(results[0].name, False, detail)
        return results

    monkeypatch.setattr(checks, "identity_checks", failing)
    assert main(["--format", fmt, *FUZZ_FAILURE]) == 2
    if fmt == "json":
        expected = FAILURE_JSON % detail
    else:
        expected = FAILURE_TABLE + (f"  detail: {detail}\n" if detail else "")
    assert capsys.readouterr().out == expected
