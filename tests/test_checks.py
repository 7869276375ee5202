import dataclasses
import hashlib
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import all_chains
import valuation_lab.bounds as bounds
import valuation_lab.checks as checks
import valuation_lab.configurations as configurations
import valuation_lab.surface as surface
from valuation_lab.bounds import tono_family
from valuation_lab.checks import (
    CheckResult,
    fuzz,
    identity_checks,
    random_configuration,
    random_tail_choices,
    trial_rng,
)
from valuation_lab.configurations import (
    SATELLITE,
    append_free_chain,
    build_configuration,
    classify_points,
    extend_with_satellite_tail,
    with_tangent_count,
)
from valuation_lab.errors import (
    ChainTooLongError,
    InvalidConfigurationError,
    ReconstructionError,
)
from valuation_lab.invariants import (
    from_maximal_contact,
    invariant_record,
    multiplicity_sequence,
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

    def test_satellite_bias_reaches_deep_structures(self):
        rng = random.Random(5)
        seen_satellite = any(
            SATELLITE in classify_points(random_configuration(rng, 12))
            for _ in range(50)
        )
        assert seen_satellite

    def test_fuzz_derives_one_run_structure_per_trial(self, monkeypatch):
        """Each trial's chain is built once, and its round trip compares runs,
        so ``identity_checks`` derives one run structure: the chain's."""
        calls = []
        real = configurations.run_structure

        def counted(runs):
            calls.append(runs)
            return real(runs)

        monkeypatch.setattr(configurations, "run_structure", counted)
        fuzz(12, 100, 1729)
        assert len(calls) == 100


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
        assert rng.getstate() == state

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


class TestIdentityChecks:
    def test_all_pass_on_handpicked_configurations(self):
        for cfg in (
            build_configuration([[]]),
            build_configuration([[], [1]]),
            build_configuration([[], [1], [2, 1]]),
            tono_family(3, 0).bundle.cfg,
        ):
            results = identity_checks(cfg)
            assert all(r.passed for r in results), [r for r in results if not r.passed]

    def test_check_names_cover_the_documented_identities(self):
        names = {r.name for r in identity_checks(build_configuration([[], [1], [2, 1]]))}
        assert {
            "last-contact-value",
            "contact-round-trip",
            "delta0-threshold",
            "nef-generator-pairings",
            "remark-dominance",
        } <= names

    def test_round_trip_failure_keeps_the_exception_type(self, monkeypatch):
        def failing(beta_bar, trailing_free=0, name=None):
            raise ReconstructionError("synthetic")

        monkeypatch.setattr(checks, "from_maximal_contact", failing)
        results = identity_checks(build_configuration([[], [1], [2, 1]]))
        (round_trip,) = [r for r in results if r.name == "contact-round-trip"]
        assert not round_trip.passed
        assert round_trip.detail == "reconstruction failed: ReconstructionError: synthetic"

    def test_nef_pairings_are_taken_at_every_delta(self, monkeypatch):
        """Only at delta = 2 does the candidate's fiber coefficient move, so a
        check that paired once and reused the values at every delta would
        pass; the special section's pairing at delta = 2 must read 1."""
        cfg = build_configuration([[], [1], [2, 1]])
        record = invariant_record(cfg)
        real = checks.lambda_from_record

        def shifted(record, delta):
            lam = real(record, delta)
            return dataclasses.replace(lam, a=lam.a + 1) if delta == 2 else lam

        def closed_form(x, y):
            return record.tangent_value**2 * x.delta - record.threshold_numerator

        monkeypatch.setattr(checks, "lambda_from_record", shifted)
        monkeypatch.setattr(checks, "intersect_hirzebruch", closed_form)
        (nef,) = [r for r in identity_checks(cfg) if r.name == "nef-generator-pairings"]
        assert not nef.passed
        assert nef.detail == "delta=2 special_section -> 1"


    def test_a_wrong_exceptional_pairing_is_named_at_the_first_delta(
        self, monkeypatch
    ):
        """E_i pairs to the same number at every delta, so a wrong residual
        entry fails at the first one, with its value."""
        cfg = build_configuration([[], [1], [2, 1], [3]])
        real = checks.proximity_residual

        def corrupted(cfg, m):
            # Drop p_3 from the points proximate to p_1: E1 pairs to v_3 = 1.
            residual = real(cfg, m)
            residual[1] += m[2]
            return residual

        monkeypatch.setattr(checks, "proximity_residual", corrupted)
        (nef,) = [r for r in identity_checks(cfg) if r.name == "nef-generator-pairings"]
        assert not nef.passed
        assert nef.detail == "delta=0 E1 -> 1"

        # A witness mismatch at the same index still overwrites the detail.
        monkeypatch.setattr(checks, "intersect_hirzebruch", lambda x, y: None)
        (nef,) = [r for r in identity_checks(cfg) if r.name == "nef-generator-pairings"]
        assert nef.detail == "witness mismatch at delta=0"

    def test_a_wrong_residual_is_named_at_its_first_point(self, monkeypatch):
        """The proximity row names the first point whose residual is off, with
        its value, not the whole chain; the nef row names the same E_i."""
        real = checks.proximity_residual

        def corrupted(cfg, m):
            residual = real(cfg, m)
            residual[1] += m[2]
            return residual

        monkeypatch.setattr(checks, "proximity_residual", corrupted)
        for cfg in (
            build_configuration([[], [1], [2, 1], [3]]),
            from_maximal_contact((1, 100000)),
        ):
            rows = {r.name: r for r in identity_checks(cfg)}
            assert not rows["proximity-equalities"].passed
            assert rows["proximity-equalities"].detail == "p_1 residual 1"
            assert rows["nef-generator-pairings"].detail == "delta=0 E1 -> 1"

    def test_remark_dominance_builds_no_bound_report(self, monkeypatch):
        """The row reads the one combinatorial bound, not a full report."""
        real = bounds.bound_report

        def refuse(bundle):
            raise AssertionError("bound_report called")

        for name, module in list(sys.modules.items()):
            if name.startswith("valuation_lab"):
                for attr, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, attr, refuse)
        for cfg in (
            build_configuration([[], [1], [2, 1]]),
            tono_family(3, 0).bundle.cfg,
        ):
            rows = identity_checks(cfg)
            assert all(r.passed for r in rows)
            assert "remark-dominance" in {r.name for r in rows}

    def test_delta0_threshold_takes_logarithmically_many_indices(self, monkeypatch):
        """The witness rises with delta, so the first non-negative index is
        found by bisection: on a 100,000-point chain (delta0 = 24,999) one
        suite asks ``npi_from_record`` a few dozen times, not 25,000."""
        calls = 0
        real = checks.npi_from_record

        def counted(record, delta):
            nonlocal calls
            calls += 1
            return real(record, delta)

        cfg = from_maximal_contact((1, 100000))
        monkeypatch.setattr(checks, "npi_from_record", counted)
        results = identity_checks(cfg)
        assert all(r.passed for r in results)
        assert calls <= 64

    @pytest.mark.parametrize("shift", [-2, -1, 1, 3])
    def test_delta0_threshold_names_the_first_index(self, monkeypatch, shift):
        """A recorded delta0 off by ``shift`` fails, and the detail names
        the true first index."""
        real = checks.valuation_bundle

        def shifted(cfg):
            bundle = real(cfg)
            return bundle._replace(delta0=bundle.delta0 + shift)

        cfg = from_maximal_contact((4, 6, 13), trailing_free=400)
        d0 = real(cfg).delta0
        assert d0 == 11
        monkeypatch.setattr(checks, "valuation_bundle", shifted)
        (threshold,) = [r for r in identity_checks(cfg) if r.name == "delta0-threshold"]
        assert not threshold.passed
        assert threshold.detail == f"delta0={d0 + shift} first={d0}"


class TestContactRoundTrip:
    """The round trip compares the runs of the chain rebuilt from the contact
    values with the chain's own, where it once compared listed multiplicities."""

    def test_every_small_chain_comes_back(self):
        """On all 2,585 chains of at most 10 points, at every admissible
        tangent count, the contact values and the tangent count give the chain
        back, and comparing runs gives the verdict comparing listed values did."""
        pairs = 0
        for lists in all_chains(10):
            for k in range(1, len(lists) + 1):
                try:
                    cfg = build_configuration(lists, tangent_count=k)
                except InvalidConfigurationError:
                    continue
                record = invariant_record(cfg)
                rebuilt = from_maximal_contact(record.beta_bar)
                assert with_tangent_count(rebuilt, k) == cfg
                listed = multiplicity_sequence(rebuilt).values
                assert (rebuilt.runs == cfg.runs) == (
                    listed == record.multiplicities.values
                )
                pairs += 1
        assert pairs == 4181

    def test_a_rebuilt_chain_that_differs_is_named_by_its_runs(self, monkeypatch):
        """A rebuild that appends one free point fails the row, whose detail
        gives the rebuilt runs."""
        real = checks.from_maximal_contact

        def one_more_point(contact):
            return append_free_chain(real(contact), 1)

        monkeypatch.setattr(checks, "from_maximal_contact", one_more_point)
        tono = tono_family(3, 0).bundle.cfg
        *head, (value, count) = tono.runs
        for cfg, runs in (
            (build_configuration([[]]), ((1, 2),)),
            (build_configuration([[], [1], [2, 1]]), ((2, 1), (1, 3))),
            (tono, (*head, (value, count + 1))),
        ):
            (row,) = [r for r in identity_checks(cfg) if r.name == "contact-round-trip"]
            assert not row.passed
            assert row.detail == f"rebuilt {runs}"


def test_identity_checks_list_linearly_many_class_entries(monkeypatch):
    """The nef-generator check holds each generator by its support, so one
    call lists O(n) dense class entries (the nef candidate per index), not
    a length-n class per generator."""
    entries = 0
    real = surface.HirzebruchClass.__post_init__

    def counted(self):
        nonlocal entries
        entries += len(self.mults)
        real(self)

    cfg = from_maximal_contact((1, 2000))
    n = cfg.size
    monkeypatch.setattr(surface.HirzebruchClass, "__post_init__", counted)
    results = identity_checks(cfg)
    assert all(r.passed for r in results)
    assert 0 < entries <= 16 * n


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

        def broken(cfg, deltas=checks.NEF_DELTAS):
            results = real(cfg)
            if cfg.size >= 3:
                results.append(CheckResult("injected", False, "synthetic"))
            return results

        monkeypatch.setattr(checks, "identity_checks", broken)
        summary = checks.fuzz(12, 50, 42)
        assert not summary.ok
        assert summary.first_failure is not None
        assert summary.first_failure.check == "injected"
        assert len(summary.first_failure.proximity_lists) >= 3
