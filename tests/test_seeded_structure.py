"""The structure a build seeds, and what a report formats once.

``build_configuration`` records each satellite stretch as it validates the
lists and seeds the configuration's ``size`` and ``structure`` with them; the
seeded values must be what ``run_structure`` matches from the runs, whichever
path (sorted lists in place, or sets) the build took.  A satellite tail
records its own stretches as it validates each target, and seeds the
extended chain with them the same way.  ``invariants_payload``
formats each distinct Puiseux exponent once per report, through a dict that
one ``main()`` call creates.
"""

import dataclasses
import json
import random

import pytest

from strategies import all_chains
from test_golden_reports import EXAMPLE_FILE
from valuation_lab import configurations, reports
from valuation_lab.bounds import satellite_tail_comparison, tono_family
from valuation_lab.checks import random_tail_choices
from valuation_lab.cli import main
from valuation_lab.configurations import (
    Configuration,
    build_configuration,
    extend_with_satellite_tail,
    run_structure,
)
from valuation_lab.reports import invariants_payload
from valuation_lab.valfile import parse


def assert_seeded(cfg):
    """The build seeded both cached properties, with what the runs give."""
    seeded = vars(cfg)
    assert seeded["structure"] == run_structure(cfg.runs)
    assert seeded["size"] == sum(count for _, count in cfg.runs)


@pytest.mark.parametrize(
    "form",
    [lambda t: t, lambda t: t[::-1], tuple],
    ids=["as-written", "reversed", "tuple"],
)
def test_small_chains_seed_the_matched_structure(small_chains, form):
    # Reversed satellite lists and tuples take the set-based path.
    for lists in small_chains:
        cfg = build_configuration([form(targets) for targets in lists])
        assert_seeded(cfg)


def test_fuzz_corpus_seeds_the_matched_structure(fuzz_corpus):
    for cfg in fuzz_corpus:
        assert_seeded(cfg)


@pytest.fixture
def matched(monkeypatch):
    """Every run tuple that ``configurations.run_structure`` matches, in call
    order."""
    calls = []

    def counted(runs):
        calls.append(runs)
        return run_structure(runs)

    monkeypatch.setattr(configurations, "run_structure", counted)
    return calls


def test_a_satellite_tail_matches_no_run(matched):
    """The tail is validated target by target, so its stretches seed the
    extended chain as a build's do, and ``satellite_tail_comparison`` reads
    the extension's structure without matching runs."""
    tono = tono_family(3, 0).bundle.cfg
    cases = [(build_configuration([[], [1], [2], [3]]), [3, 3, 5]), (tono, [16])]
    for cfg, _ in cases:
        cfg.structure  # a chain given as runs matches its own once, here
    matched.clear()
    extended = [extend_with_satellite_tail(cfg, tail) for cfg, tail in cases]
    comparisons = [satellite_tail_comparison(cfg, tail) for cfg, tail in cases]
    assert [ext.structure.genus_count for ext in extended] == [1, 3]
    assert matched == []
    for ext in extended:
        assert_seeded(ext)
    assert comparisons[1].delta0_non_increasing


def test_every_small_chain_seeds_its_satellite_tails(matched):
    """Every chain of at most 8 points that ends on a free point, extended by
    seeded tails of 1 to 4 satellites, seeds the structure the runs match."""
    rng = random.Random(8)
    cases = 0
    for lists in all_chains(8):
        if len(lists) < 2 or len(lists[-1]) == 2:
            continue
        cfg = build_configuration(lists)
        for length in range(1, 5):
            extended = extend_with_satellite_tail(
                cfg, random_tail_choices(cfg, length, rng)
            )
            assert matched == []
            assert_seeded(extended)
            cases += 1
    assert cases == 580


def test_replace_derives_the_new_runs_structure():
    cfg = build_configuration([[], [1], [1, 2], [1, 3], [4]])
    other = build_configuration([[], [1], [2], [2, 3], [4]])
    replaced = dataclasses.replace(cfg, runs=other.runs)
    assert "structure" not in vars(replaced)
    assert replaced.structure == other.structure != cfg.structure
    assert replaced.size == other.size


def test_a_seeded_configuration_equals_an_unseeded_one(small_chains):
    for lists in small_chains[::50]:
        cfg = build_configuration(lists)
        plain = Configuration(cfg.runs, cfg.tangent_count)
        assert cfg == plain and hash(cfg) == hash(plain)
        assert repr(cfg) == repr(plain)


def test_a_wrong_push_is_a_failed_row_not_an_input_error(
    monkeypatch, tmp_path, capsys
):
    """The build's stretches are the file's, so runs pushed wrong fail the
    ``proximity-equalities`` row instead of blaming the input."""
    real = configurations.push_runs

    def wrong(older):
        (value, count), *rest = real(older)
        return ((value + 1, count), *rest)

    monkeypatch.setattr(configurations, "push_runs", wrong)
    path = tmp_path / "valuations.json"
    path.write_text(EXAMPLE_FILE, encoding="utf-8")
    assert main(["--format", "json", "check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = json.loads(captured.out)["valuations"][0]["checks"]
    assert {"check": "proximity-equalities", "passed": False} in [
        {k: row[k] for k in ("check", "passed")} for row in rows
    ]


@pytest.fixture
def formatted(monkeypatch):
    """Every (p, q) that ``reports.rational_payload`` formats, in call order."""
    calls = []
    real = reports.rational_payload

    def counted(p, q):
        calls.append((p, q))
        return real(p, q)

    monkeypatch.setattr(reports, "rational_payload", counted)
    return calls


def test_one_report_formats_each_distinct_exponent_once(
    formatted, tmp_path, capsys
):
    path = tmp_path / "example.json"
    path.write_text(EXAMPLE_FILE, encoding="utf-8")
    entries = parse(EXAMPLE_FILE).entries
    ratios = [r for entry in entries for r in entry.bundle.record.ratios]
    assert len(set(ratios)) < len(ratios)  # the entries repeat exponents
    volumes = 2 * len(entries)  # each entry's volume and normalized volume

    assert main(["invariants", str(path)]) == 0
    first = capsys.readouterr().out
    assert len(formatted) == len(set(ratios)) + volumes
    assert set(ratios) <= set(formatted)

    # A second call keeps nothing of the first and formats everything again.
    formatted.clear()
    assert main(["invariants", str(path)]) == 0
    assert capsys.readouterr().out == first
    assert len(formatted) == len(set(ratios)) + volumes


def test_equal_exponents_share_one_payload():
    first, second, _ = parse(EXAMPLE_FILE).entries
    shared = {}
    a = invariants_payload(first, shared)["puiseux_exponents"]
    b = invariants_payload(second, shared)["puiseux_exponents"]
    assert a[0] is a[2] is b[0]  # beta'_0 = 1 in both, and the cusp's last
    assert a[1] is b[1]  # 3/2
    assert invariants_payload(second)["puiseux_exponents"] == b
