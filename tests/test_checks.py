import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import configurations as strategy_configurations
from strategies import rebind
import valuation_lab.bounds as bounds
import valuation_lab.checks as checks
import valuation_lab.configurations as configurations
import valuation_lab.surface as surface
from valuation_lab.bounds import tono_family, valuation_bundle
from valuation_lab.checks import (
    CheckResult,
    fuzz,
    identity_checks,
    random_configuration,
    random_tail_choices,
    trial_rng,
)
from valuation_lab.configurations import (
    Configuration,
    SATELLITE,
    build_configuration,
    classify_points,
    extend_with_satellite_tail,
)
from valuation_lab.errors import (
    ChainTooLongError,
    InvalidConfigurationError,
    ReconstructionError,
)
from valuation_lab.invariants import (
    curvette_vector,
    from_maximal_contact,
    invariant_record,
    multiplicity_sequence,
    noether_pairing,
)


class TestRandomConfiguration:
    @given(st.integers(0, 10**9), st.integers(1, 15))
    @settings(max_examples=80)
    def test_generates_valid_configurations(self, seed, max_points):
        cfg = random_configuration(random.Random(seed), max_points)
        assert 1 <= cfg.size <= max_points
        rebuilt = build_configuration(
            cfg.proximity_lists(), tangent_count=cfg.tangent_count
        )
        assert rebuilt == cfg

    def test_deterministic_for_fixed_seed(self):
        a = random_configuration(random.Random(99), 12)
        b = random_configuration(random.Random(99), 12)
        assert a == b

    def test_rejects_sizes_above_the_listing_limit(self, monkeypatch):
        monkeypatch.setattr(configurations, "MAX_LISTED_POINTS", 50)
        assert random_configuration(random.Random(1), 50).size <= 50
        with pytest.raises(ChainTooLongError, match="51"):
            random_configuration(random.Random(1), 51)

    def test_rejects_sizes_below_one(self):
        with pytest.raises(ValueError) as caught:
            random_configuration(random.Random(1), 0)
        assert str(caught.value) == "max_points must be at least 1"
        with pytest.raises(ValueError) as caught:
            fuzz(3, 0, 1)
        assert str(caught.value) == "trials must be at least 1"

    def test_satellite_bias_reaches_deep_structures(self):
        rng = random.Random(5)
        seen_satellite = any(
            SATELLITE in classify_points(random_configuration(rng, 12))
            for _ in range(50)
        )
        assert seen_satellite

    def test_fuzz_derives_one_run_structure_per_trial(self, monkeypatch):
        """Each trial's chain is built once, its build seeds the run
        structure, and its round trip compares runs, so no trial matches
        runs for a structure."""
        calls = []
        real = configurations.run_structure

        def counted(runs):
            calls.append(runs)
            return real(runs)

        monkeypatch.setattr(configurations, "run_structure", counted)
        fuzz(12, 100, 1729)
        assert calls == []


class TestRandomTailChoices:
    @given(st.integers(0, 10**6), st.integers(1, 6))
    @settings(max_examples=60)
    def test_choices_are_admissible(self, seed, length):
        rng = random.Random(seed)
        cfg = random_configuration(rng, 10)
        if cfg.size < 2 or classify_points(cfg)[-1] == SATELLITE:
            return
        choices = random_tail_choices(cfg, length, rng)
        assert len(choices) == length
        extended = extend_with_satellite_tail(cfg, choices)
        assert extended.size == cfg.size + length

    @pytest.mark.parametrize(
        "lists, message",
        [
            ([[]], "at least two points"),
            ([[], [1], [2, 1]], "must start after a free point"),
        ],
    )
    def test_rejects_chains_no_tail_can_follow(self, lists, message):
        cfg = build_configuration(lists)
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(InvalidConfigurationError, match=message):
            random_tail_choices(cfg, 3, rng)
        with pytest.raises(InvalidConfigurationError, match=message):
            extend_with_satellite_tail(cfg, [1])
        with pytest.raises(InvalidConfigurationError, match=message):
            bounds.satellite_tail_comparison(cfg, [1])
        assert rng.getstate() == state

    def test_an_inadmissible_choice_raises_before_any_record(self, monkeypatch):
        """The comparison builds the extension, which checks the choices,
        before it builds either record."""
        calls = []

        def counted(cfg):
            calls.append(cfg)
            return invariant_record(cfg)

        rebind(monkeypatch, invariant_record, counted)
        cfg = build_configuration([[], [1], [2]])
        with pytest.raises(InvalidConfigurationError, match="not admissible"):
            bounds.satellite_tail_comparison(cfg, [0])
        assert calls == []

    @pytest.mark.parametrize("length", [-1, -3])
    def test_rejects_a_negative_length_before_drawing(self, length):
        """A negative length raises before anything is drawn; 0 gives no
        choices."""
        cfg = build_configuration([[], [1]])
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(ValueError) as caught:
            random_tail_choices(cfg, length, rng)
        assert str(caught.value) == "length must be non-negative"
        assert rng.getstate() == state
        assert random_tail_choices(cfg, 0, rng) == []

    def test_random_streams_are_pinned(self):
        """The acceptance corpus, plus a 6-point tail drawn from the same
        stream on each chain that can take one, hashed: growing a chain or a
        tail must keep drawing the same numbers from every stream."""
        digest = hashlib.sha256()
        for trial in range(1000):
            rng = trial_rng(1729, trial)
            cfg = random_configuration(rng, 12)
            digest.update(repr((cfg.runs, cfg.tangent_count)).encode())
            if cfg.size >= 2 and classify_points(cfg)[-1] != SATELLITE:
                digest.update(repr(random_tail_choices(cfg, 6, rng)).encode())
        assert digest.hexdigest() == (
            "9c468a1467d9dbe6854ff20f49aaccb9d6ef1eed822e34572d1e02d5b24abeaf"
        )


def failed_rows(bundle):
    """The names of the rows of ``identity_checks`` that fail on ``bundle``."""
    return {r.name for r in identity_checks(bundle) if not r.passed}


class TestIdentityChecks:
    def test_all_pass_on_handpicked_configurations(self):
        for cfg in (
            build_configuration([[]]),
            build_configuration([[], [1]]),
            build_configuration([[], [1], [2, 1]]),
            tono_family(3, 0).bundle.cfg,
        ):
            results = identity_checks(valuation_bundle(cfg))
            assert all(r.passed for r in results), [r for r in results if not r.passed]

    @pytest.mark.parametrize(
        "cfg, rows",
        [
            (build_configuration([[]]), 3),
            (from_maximal_contact((1, 5)), 5),
            (build_configuration([[], [1], [2, 1]]), 5),
        ],
        ids=["one-point", "no-satellite", "satellite"],
    )
    def test_rows_are_named_in_order(self, cfg, rows):
        """A single point gets the first three rows, and any longer chain,
        with or without a satellite, all five."""
        names = [
            "proximity-equalities",
            "last-contact-value",
            "contact-round-trip",
            "tangent-range",
            "remark-dominance",
        ]
        results = identity_checks(valuation_bundle(cfg))
        assert [r.name for r in results] == names[:rows]

    def test_round_trip_failure_keeps_the_exception_type(self, monkeypatch):
        def failing(beta_bar, trailing_free=0):
            raise ReconstructionError("synthetic")

        monkeypatch.setattr(checks, "from_maximal_contact", failing)
        cfg = build_configuration([[], [1], [2, 1]])
        results = identity_checks(valuation_bundle(cfg))
        (round_trip,) = [r for r in results if r.name == "contact-round-trip"]
        assert not round_trip.passed
        assert round_trip.detail == "reconstruction failed: ReconstructionError: synthetic"

    @staticmethod
    def _corrupt_residual(monkeypatch):
        """Raise the residual at p_1 by v_3 = 1, as if p_3 were dropped from the
        points proximate to p_1; p_1 stays the first key."""
        real = checks.proximity_residual

        def corrupted(cfg, m):
            residual = real(cfg, m)
            return {1: residual.pop(1, 0) + 1, **residual}

        monkeypatch.setattr(checks, "proximity_residual", corrupted)

    def test_a_wrong_residual_is_named_at_its_first_point(self, monkeypatch):
        """The proximity row names the first point whose residual is off, with
        its value, not the whole chain; no other row fails."""
        self._corrupt_residual(monkeypatch)
        for cfg in (
            build_configuration([[], [1], [2, 1], [3]]),
            from_maximal_contact((1, 100000)),
        ):
            bundle = valuation_bundle(cfg)
            rows = {r.name: r for r in identity_checks(bundle)}
            assert rows["proximity-equalities"].detail == "p_1 residual 1"
            assert failed_rows(bundle) == {"proximity-equalities"}

    def test_remark_dominance_builds_no_bound_report(self, monkeypatch):
        """The row reads the one combinatorial bound, not a full report."""
        def refuse(bundle):
            raise AssertionError("bound_report called")

        rebind(monkeypatch, bounds.bound_report, refuse)
        for cfg in (
            build_configuration([[], [1], [2, 1]]),
            tono_family(3, 0).bundle.cfg,
        ):
            rows = identity_checks(valuation_bundle(cfg))
            assert all(r.passed for r in rows)
            assert "remark-dominance" in {r.name for r in rows}

    def test_a_bound_below_the_trivial_one_fails_only_remark_dominance(
        self, monkeypatch
    ):
        """A combinatorial bound of -n, below the trivial bound 1 - n, fails
        the remark's row, with its terms, and no other."""
        monkeypatch.setattr(checks, "_combinatorial_bound", lambda cfg, contact: -cfg.size)
        for cfg in (
            build_configuration([[], [1], [2, 1]]),
            tono_family(3, 0).bundle.cfg,
            from_maximal_contact((1, 100000)),
        ):
            bundle = valuation_bundle(cfg)
            rows = identity_checks(bundle)
            (row,) = [r for r in rows if r.name == "remark-dominance"]
            assert row.detail.startswith(f"comb={-cfg.size} ")
            assert failed_rows(bundle) == {"remark-dominance"}


@pytest.fixture(scope="session")
def small_pairs(small_chains):
    """Every (chain, tangent count) pair of at most 10 points, built once, as
    (configuration, invariant record)."""
    pairs = []
    for lists in small_chains:
        for k in range(1, len(lists) + 1):
            try:
                cfg = build_configuration(lists, tangent_count=k)
            except InvalidConfigurationError:
                continue
            pairs.append((cfg, invariant_record(cfg)))
    return pairs


class TestContactRoundTrip:
    """The round trip compares the runs of the chain rebuilt from the contact
    values with the chain's own, where it once compared listed multiplicities."""

    def test_every_small_chain_comes_back(self, small_pairs):
        """On all 2,585 chains of at most 10 points, at every admissible
        tangent count, the contact values and the tangent count give the chain
        back, and comparing runs gives the verdict comparing listed values did."""
        for cfg, record in small_pairs:
            rebuilt = from_maximal_contact(record.beta_bar)
            assert Configuration(rebuilt.runs, cfg.tangent_count) == cfg
            listed = multiplicity_sequence(rebuilt).values
            assert (rebuilt.runs == cfg.runs) == (
                listed == record.multiplicities.values
            )
        assert len(small_pairs) == 4181

    def test_a_rebuilt_chain_that_differs_is_named_by_its_runs(self, monkeypatch):
        """A rebuild that appends one free point fails the row, whose detail
        gives the rebuilt runs."""
        real = checks.from_maximal_contact

        def one_more_point(contact):
            return real(contact, trailing_free=1)

        monkeypatch.setattr(checks, "from_maximal_contact", one_more_point)
        tono = tono_family(3, 0).bundle.cfg
        *head, (value, count) = tono.runs
        for cfg, runs in (
            (build_configuration([[]]), ((1, 2),)),
            (build_configuration([[], [1], [2, 1]]), ((2, 1), (1, 3))),
            (tono, (*head, (value, count + 1))),
        ):
            bundle = valuation_bundle(cfg)
            rows = identity_checks(bundle)
            (row,) = [r for r in rows if r.name == "contact-round-trip"]
            assert row.detail == f"rebuilt {runs}"
            assert failed_rows(bundle) == {"contact-round-trip"}


class TestLastContactValue:
    """``check`` compares the record's last contact value, from Zariski's
    recursion over the last block, with the sum of count * value^2 over the
    runs.  The point-level fact behind that sum, the chain paired with the
    curvette through p_n, is kept here."""

    @staticmethod
    def assert_three_sides_agree(cfg, record):
        v = multiplicity_sequence(cfg).values
        curvette = noether_pairing(cfg, v, curvette_vector(cfg, cfg.size))
        runs = sum(count * value * value for value, count in cfg.runs)
        assert curvette == runs == record.beta_bar[-1]

    def test_every_small_chain(self, small_pairs):
        for cfg, record in small_pairs:
            self.assert_three_sides_agree(cfg, record)
        assert len(small_pairs) == 4181

    @given(strategy_configurations(max_points=200))
    @settings(max_examples=40, deadline=None)
    def test_long_random_chains(self, cfg):
        self.assert_three_sides_agree(cfg, invariant_record(cfg))

    def test_a_record_off_by_one_is_caught(self):
        """A Zariski step over the last block that is off by one leaves the
        record's last contact value one off the runs' sum of squares."""

        def off_by_one(bundle):
            *head, last = bundle.record.beta_bar
            record = bundle.record._replace(beta_bar=(*head, last + 1))
            return bundle._replace(record=record)

        for cfg in (
            build_configuration([[], [1], [2, 1], [3]]),
            tono_family(3, 0).bundle.cfg,
            from_maximal_contact((1, 10**12)),
        ):
            square = sum(count * value * value for value, count in cfg.runs)
            rows = identity_checks(off_by_one(valuation_bundle(cfg)))
            (row,) = [r for r in rows if r.name == "last-contact-value"]
            assert not row.passed
            assert row.detail == f"direct={square} recorded={square + 1}"

    def test_a_second_contact_value_off_by_one_is_caught(self, small_chains):
        """No row compares beta_bar_1 with the first Puiseux ratio, since the
        record sets it from that ratio in one step.  A record whose beta_bar_1
        is one too large still fails the round trip on every chain of at most
        10 points that has a satellite, and on tono (3, 0)."""
        bundles = [valuation_bundle(build_configuration(c)) for c in small_chains]
        bundles = [b for b in bundles if b.cfg.structure.stretches]
        assert len(bundles) == 2575
        for bundle in (*bundles, tono_family(3, 0).bundle):
            b0, b1, *tail = bundle.record.beta_bar
            record = bundle.record._replace(beta_bar=(b0, b1 + 1, *tail))
            rows = identity_checks(bundle._replace(record=record))
            (row,) = [r for r in rows if r.name == "contact-round-trip"]
            assert not row.passed, bundle.cfg.proximity_lists()


def test_identity_checks_list_nothing_on_tono_12_3(monkeypatch):
    """On the 79,226-point tono (12, 3) chain the suite lists no chain (no
    ``expand_runs``, no ``older`` array) and builds no ``HirzebruchClass``."""

    def refuse(*args):
        raise AssertionError("listed or built point by point")

    cfg = tono_family(12, 3).bundle.cfg
    rebind(monkeypatch, configurations.expand_runs, refuse)
    monkeypatch.setattr(surface.HirzebruchClass, "__post_init__", refuse)
    results = identity_checks(valuation_bundle(cfg))
    assert len(results) == 5
    assert all(r.passed for r in results)


def test_checks_imports_one_name_from_invariants_and_none_from_surface():
    """The suite reads the record: from ``invariants`` it takes only the
    contact-value reconstruction, and from ``surface`` nothing."""
    imported = {
        (value.__module__, name)
        for name, value in vars(checks).items()
        if callable(value) and value.__module__ != checks.__name__
    }
    assert {n for m, n in imported if m == "valuation_lab.invariants"} == {
        "from_maximal_contact"
    }
    assert not {n for m, n in imported if m == "valuation_lab.surface"}


class TestFuzz:
    def test_deterministic(self):
        assert fuzz(12, 50, 42) == fuzz(12, 50, 42)

    def test_different_seeds_differ(self):
        assert fuzz(12, 50, 1) != fuzz(12, 50, 2)

    def test_corpus_is_clean(self):
        summary = fuzz(12, 200, 7)
        assert summary.ok
        assert summary.checks_failed == 0
        assert summary.first_failure is None

    def test_m_adic_only(self):
        summary = fuzz(1, 10, 3)
        assert summary.ok

    def test_reports_first_counterexample(self, monkeypatch):
        real = checks.identity_checks

        def broken(bundle):
            results = real(bundle)
            if bundle.cfg.size >= 3:
                results.append(CheckResult("injected", False, "synthetic"))
            return results

        monkeypatch.setattr(checks, "identity_checks", broken)
        summary = checks.fuzz(12, 50, 42)
        assert not summary.ok
        assert summary.first_failure is not None
        assert summary.first_failure.check == "injected"
        assert len(summary.first_failure.proximity) >= 3
