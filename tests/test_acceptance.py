"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All comparisons are exact (integers and rationals); the corpus criteria
run over the shared 1000-configuration fuzz corpus.
"""

import random
from fractions import Fraction
from math import ceil

from valuation_lab.bounds import (
    combinatorial_lambda_bound,
    delta0,
    lambda_lower_bound,
    multi_valuation,
    satellite_tail_comparison,
    tono_family,
)
from valuation_lab.checks import random_tail_choices
from valuation_lab.cli import main
from valuation_lab.configurations import SATELLITE, classify_points
from valuation_lab.invariants import (
    curvette_vector,
    from_maximal_contact,
    maximal_contact_values,
    multiplicity_sequence,
    noether_pairing,
    normalized_volume,
)
from valuation_lab.surface import (
    AffinePolynomial,
    hirzebruch_class_of_polynomial,
    nef_on_generators,
    npi_check,
)

NEF_DELTAS = (0, 1, 2, 3)


def criterion(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail and not ok else ""
    print(f"[acceptance] criterion {number:02d} {label}: {status}{suffix}")
    assert ok, f"criterion {number} {label}: {detail}"


def test_criterion_01_tono_family_reproduction():
    failures = []
    for a, e in ((3, 0), (4, 1), (5, 2)):
        fam = tono_family(a, e)
        expected_contact = (
            a * a - a,
            a * a,
            a**3 + 2 * a + 1,
            (e + 2) * a**4 - 2 * a**3,
        )
        expected = {
            "contact": expected_contact,
            "tangent": a * a,
            "delta0": e,
            "mu_hat": Fraction((e + 2) * a**4 - 2 * a**3, a * a + 1),
            "bound": (e + 2) * a * a - a,
            "ratio": Fraction(
                (a * a + 1) ** 2 - (e + 2) * a**4 + 2 * a**3, (a * a + 1) ** 2
            ),
        }
        actual = {
            "contact": fam.bundle.record.beta_bar,
            "tangent": fam.bundle.record.tangent_value,
            "delta0": fam.bundle.delta0,
            "mu_hat": fam.mu_hat,
            "bound": fam.mu_hat_bound,
            "ratio": fam.ratio,
        }
        if actual != expected:
            failures.append((a, e, expected, actual))
    fam30 = tono_family(3, 0)
    if not (
        fam30.bundle.record.beta_bar == (6, 9, 34, 108)
        and fam30.mu_hat == Fraction(54, 5)
        and fam30.mu_hat_bound == 15
        and fam30.ratio == Fraction(-2, 25)
    ):
        failures.append(("(3,0) named values", fam30))
    criterion(1, "tono family reproduction (exact)", not failures, str(failures))


def test_criterion_02_final_contact_value_identity(fuzz_corpus):
    bad = 0
    for cfg in fuzz_corpus:
        v = multiplicity_sequence(cfg).values
        via_curvette = noether_pairing(cfg, v, curvette_vector(cfg, cfg.size))
        direct = sum(x * x for x in v)
        recorded = maximal_contact_values(cfg).beta_bar[-1]
        if not (via_curvette == direct == recorded):
            bad += 1
    criterion(
        2,
        "last contact value equals the sum of squared multiplicities "
        f"on {len(fuzz_corpus)} fuzzed configurations",
        bad == 0,
        f"{bad} mismatches",
    )


def test_criterion_03_delta0_oracle(fuzz_corpus):
    bad = 0
    for cfg in fuzz_corpus:
        d0 = delta0(cfg)
        if cfg.size == 1:
            if d0 != -1:
                bad += 1
            continue
        smallest = 0
        while not npi_check(cfg, smallest).non_positive_at_infinity:
            smallest += 1
        if d0 != smallest:
            bad += 1
        elif d0 > 0 and npi_check(cfg, d0 - 1).non_positive_at_infinity:
            bad += 1
    criterion(3, "delta0 equals the smallest admissible index", bad == 0, f"{bad} bad")


def test_criterion_04_nef_pairing_identities(fuzz_corpus):
    bad = 0
    for cfg in fuzz_corpus:
        n = cfg.size
        for delta in NEF_DELTAS:
            for gp in nef_on_generators(cfg, delta):
                expected = 1 if gp.name == f"E{n}" else 0
                if gp.value != expected:
                    bad += 1
    criterion(
        4,
        "nef candidate pairs to 0 with every generator except the last "
        "exceptional curve (value 1), for index 0..3",
        bad == 0,
        f"{bad} bad pairings",
    )


def test_criterion_05_contact_round_trip(fuzz_corpus):
    bad = 0
    for cfg in fuzz_corpus:
        contact = maximal_contact_values(cfg).beta_bar
        rebuilt = from_maximal_contact(contact)
        if multiplicity_sequence(rebuilt).values != multiplicity_sequence(cfg).values:
            bad += 1
    criterion(5, "contact-value round trip on the corpus", bad == 0, f"{bad} bad")


def test_criterion_06_bidegree_bounds():
    rng = random.Random(60606)
    checked = 0
    bad = 0
    while checked < 500:
        size = rng.randint(1, 8)
        support = {(rng.randint(0, 10), rng.randint(0, 10)) for _ in range(size)}
        f = AffinePolynomial.from_pairs(support)
        if len(f.support) > 1 and (
            min(i for i, _ in f.support) > 0 or min(j for _, j in f.support) > 0
        ):
            continue
        checked += 1
        for delta in range(5):
            a, b = hirzebruch_class_of_polynomial(f, delta)
            if a > f.degree_u or b > f.degree_v:
                bad += 1
    criterion(
        6,
        "bidegrees bounded by the coordinate degrees on 500 random supports",
        bad == 0,
        f"{bad} violations",
    )


def test_criterion_07_satellite_tail(fuzz_corpus):
    rng = random.Random(70707)
    findings = []
    pairs = 0
    for cfg in fuzz_corpus:
        if pairs == 200:
            break
        if cfg.size < 2 or classify_points(cfg)[-1] == SATELLITE:
            continue
        length = rng.randint(1, 5)
        choices = random_tail_choices(cfg, length, rng)
        comparison = satellite_tail_comparison(cfg, choices)
        pairs += 1
        if not comparison.delta0_non_increasing:
            findings.append(
                f"delta0 increased {comparison.delta0_before}->"
                f"{comparison.delta0_after} on {cfg.proximity_lists()} + {choices}"
            )
        if not comparison.difference_in_unit_interval:
            findings.append(
                f"difference {comparison.difference} outside (0,1) on "
                f"{cfg.proximity_lists()} + {choices}"
            )
    for finding in findings:
        print(f"[acceptance]   finding: {finding}")
    criterion(
        7,
        f"satellite tails never raise delta0 and shift the threshold term "
        f"by an amount in (0,1), on {pairs} pairs",
        pairs == 200 and not findings,
        f"{len(findings)} findings on {pairs} pairs",
    )


def test_criterion_08_dominance_over_trivial_bound(fuzz_corpus):
    bad = 0
    for cfg in fuzz_corpus:
        if cfg.size < 2:
            continue
        bound = combinatorial_lambda_bound(cfg)
        middle = 1 - ceil(1 / normalized_volume(cfg))
        if not bound >= middle >= 1 - cfg.size:
            bad += 1
    criterion(8, "combinatorial bound dominates the point-count bound", bad == 0,
              f"{bad} bad")


def test_criterion_09_asymptotics():
    problems = []
    for e in range(0, 4):
        mu_ratios = []
        lambda_gaps = []
        for a in range(3, 13):
            fam = tono_family(a, e)
            mu_ratio = Fraction(fam.mu_hat_bound) / fam.mu_hat
            if mu_ratio <= 1:
                problems.append(f"bound/mu_hat <= 1 at a={a}, e={e}")
            mu_ratios.append(mu_ratio)
            mv = multi_valuation([fam.bundle], aligned_mu=2)
            lam = lambda_lower_bound(mv)
            if lam != -(e + 1):
                problems.append(f"lambda bound {lam} != -(e+1) at a={a}, e={e}")
            if not lam <= fam.ratio:
                problems.append(f"lambda bound above the ratio at a={a}, e={e}")
            lambda_gaps.append(fam.ratio - lam)
        if not all(x > y for x, y in zip(mu_ratios, mu_ratios[1:])):
            problems.append(f"mu ratios not strictly decreasing at e={e}")
        if not all(x > y for x, y in zip(lambda_gaps, lambda_gaps[1:])):
            problems.append(f"lambda gaps not strictly decreasing at e={e}")
    criterion(
        9,
        "bound/constant ratio > 1 and decreasing; lambda gap positive and "
        "decreasing (a in 3..12, e in 0..3)",
        not problems,
        "; ".join(problems),
    )


def test_criterion_10_cli_determinism(tmp_path, capsys, monkeypatch):
    path = tmp_path / "family.json"
    path.write_text('{"valuations": [{"tono": {"a": 3, "e": 0}}]}', encoding="utf-8")
    problems = []

    for fmt in ("table", "json"):
        outputs = []
        for _ in range(2):
            code = main(["--format", fmt, "invariants", str(path)])
            outputs.append(capsys.readouterr().out.encode())
            if code != 0:
                problems.append(f"exit {code} on a valid file ({fmt})")
        if outputs[0] != outputs[1]:
            problems.append(f"{fmt} reports are not byte-identical")

    if main(["check", str(path)]) != 0:
        problems.append("check on a valid file should exit 0")
    capsys.readouterr()

    bad = tmp_path / "bad.json"
    bad.write_text('{"valuations": [{"proximity": [[], [2]]}]}', encoding="utf-8")
    if main(["invariants", str(bad)]) != 1:
        problems.append("validation error should exit 1")
    capsys.readouterr()

    import valuation_lab.checks as checks
    from valuation_lab.checks import CheckResult

    def broken(bundle):
        return [CheckResult("injected", False, "synthetic")]

    monkeypatch.setattr(checks, "identity_checks", broken)
    if main(["check", str(path)]) != 2:
        problems.append("check failure should exit 2")
    monkeypatch.undo()
    capsys.readouterr()

    criterion(10, "CLI reports byte-identical; exit codes 0/1/2", not problems,
              "; ".join(problems))
