"""Run-level invariants equal their point-level references.

``invariant_record`` reads a configuration's multiplicity runs and its
run-level proximity structure.  Each field is checked here against a
record built point by point: ``multiplicity_sequence``, ``noether_pairing``
with ``curvette_vector``, satellite labels read from ``cfg.points``, and
``itertools.groupby`` run tables per block.
"""

import contextlib
import io
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings

import valuation_lab.configurations as configurations
from strategies import configurations as random_configurations
from valuation_lab.bounds import bound_report, valuation_bundle
from valuation_lab.cli import main
from valuation_lab.configurations import (
    BlockDecomposition,
    Configuration,
    build_configuration,
    expand_runs,
    run_structure,
)
from valuation_lab.errors import ChainTooLongError, ReconstructionError
from valuation_lab.invariants import (
    InvariantRecord,
    MaximalContactValues,
    PuiseuxExponents,
    curvette_vector,
    from_maximal_contact,
    invariant_record,
    multiplicity_sequence,
    noether_pairing,
)


def point_level_record(cfg: Configuration) -> InvariantRecord:
    multiplicities = multiplicity_sequence(cfg)
    v = multiplicities.values
    satellite = [len(p.proximate_to) == 2 for p in cfg.points]
    boundaries, last_free = [1], []
    for is_satellite, group in itertools.groupby(
        enumerate(satellite, 1), key=lambda pair: pair[1]
    ):
        indices = [i for i, _ in group]
        if is_satellite:
            last_free.append(indices[0] - 1)
            boundaries.append(indices[-1])
    boundaries.append(cfg.size)
    decomposition = BlockDecomposition(
        boundaries=tuple(boundaries),
        last_free_indices=tuple(last_free),
        genus_count=len(last_free),
    )
    beta = (
        v[0],
        *(noether_pairing(cfg, v, curvette_vector(cfg, r)) for r in last_free),
        sum(x * x for x in v),
    )
    tables = tuple(
        tuple(len(list(run)) for _, run in itertools.groupby(v[lo - 1 : hi]))
        for lo, hi in decomposition.blocks
    )

    def continued_fraction(digits):
        value = Fraction(digits[-1])
        for d in reversed(digits[:-1]):
            value = d + 1 / value
        return value

    return InvariantRecord(
        multiplicities=multiplicities,
        contact=MaximalContactValues(
            beta_bar=beta, gcd_chain=tuple(itertools.accumulate(beta, math.gcd))
        ),
        puiseux=PuiseuxExponents(
            beta_prime=(Fraction(1), *map(continued_fraction, tables)),
            run_length_tables=tables,
        ),
        volume=Fraction(1, beta[-1]),
        normalized_volume=Fraction(beta[0] ** 2, beta[-1]),
        tangent_value=(
            1 if cfg.size == 1 else sum(x for x, p in zip(v, cfg.points) if p.on_tangent)
        ),
        is_m_adic=cfg.size == 1,
        decomposition=decomposition,
    )


def assert_run_level_matches_point_level(cfg: Configuration) -> None:
    record = invariant_record(cfg)
    assert record == point_level_record(cfg)
    assert record.multiplicities.values == multiplicity_sequence(cfg).values
    # The points listed from the runs alone are the ones that were validated.
    assert Configuration(cfg.runs, cfg.tangent_count, cfg.name).points == cfg.points
    rebuilt = from_maximal_contact(record.beta_bar)
    assert rebuilt.points == build_configuration(
        cfg.proximity_lists(), rebuilt.tangent_count
    ).points


def test_fuzz_corpus(fuzz_corpus):
    for cfg in fuzz_corpus:
        assert_run_level_matches_point_level(cfg)


@given(random_configurations(max_points=200))
@settings(max_examples=100, deadline=None)
def test_random_configurations(cfg):
    assert_run_level_matches_point_level(cfg)


@pytest.mark.parametrize(
    "runs",
    [
        ((2, 1), (1, 1)),  # v_1 = 2 cannot be matched by one point of value 1
        ((3, 1), (2, 2), (1, 1)),  # 2 + 2 overshoots v_1 = 3
        ((4, 1), (2, 1), (1, 2)),  # p_4 would be proximate to p_1, p_2 and p_3
        ((2, 1),),  # the last multiplicity must be 1
    ],
)
def test_run_structure_rejects_unrealizable_runs(runs):
    with pytest.raises(ReconstructionError):
        run_structure(runs)


def test_chains_too_long_to_list(monkeypatch):
    assert configurations.MAX_LISTED_POINTS >= 10**7
    cfg = from_maximal_contact((1, 10**12))
    assert cfg.runs == ((1, 10**12),)
    record = invariant_record(cfg)
    assert record.beta_bar == (1, 10**12)
    assert record.tangent_value == 2
    with pytest.raises(ChainTooLongError):
        cfg.points
    with pytest.raises(ChainTooLongError):
        record.multiplicities.values
    monkeypatch.setattr(configurations, "MAX_LISTED_POINTS", 5)
    assert expand_runs(((2, 1), (1, 4))) == [2, 1, 1, 1, 1]
    with pytest.raises(ChainTooLongError, match=r"6 points .*\(limit 5\)"):
        expand_runs(((2, 1), (1, 5)))


def test_multi_block_chain_too_long_to_list():
    # Block 1 expands (4, 6): runs (4, 1), (2, 2).  Block 2 expands
    # (e_1, y_2) = (2, 10**9 + 11 - 2 * 6 + 2) = (2, 10**9 + 1): runs
    # (2, 5 * 10**8), (1, 2), opening on block 1's last point.
    cfg = from_maximal_contact((4, 6, 10**9 + 11))
    assert cfg.runs == ((4, 1), (2, 500000001), (1, 2))
    record = invariant_record(cfg)
    # beta_bar_3 = 4**2 + 500000001 * 2**2 + 2 * 1**2.
    assert record.beta_bar == (4, 6, 1000000011, 2000000022)
    assert record.puiseux.run_length_tables == ((1, 2), (500000000, 2), (1,))
    with pytest.raises(ChainTooLongError):
        cfg.points


@pytest.fixture
def no_point_records(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a per-point record was built")

    monkeypatch.setattr(configurations, "PointRecord", refuse)


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_family_builds_no_point_records(no_point_records, fmt):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--format", fmt, "family", "tono", "--a", "12", "--e", "3"]) == 0


def test_bound_report_builds_no_point_records(no_point_records):
    cfg = from_maximal_contact((2, 2000001))
    report = bound_report(valuation_bundle(cfg))
    # Runs (2, 10**6), (1, 2): beta_bar_last = 4 * 10**6 + 2 and t = 4, so
    # delta0 = ceil((4 * 10**6 + 2 - 16) / 16) = 250000.
    assert cfg.size == 10**6 + 2
    assert report.degree_bound.value == Fraction(4 * 10**6 + 2, 2 + 250001 * 4)
