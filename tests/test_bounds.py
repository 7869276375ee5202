import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import configurations, proximity_chains
from valuation_lab import reports
from valuation_lab.bounds import (
    BoundReport,
    bound_report,
    ceil_plus,
    combinatorial_lambda_bound,
    degree_lower_bound,
    delta0,
    lambda_lower_bound,
    multi_ratio_bound,
    multi_valuation,
    satellite_tail_comparison,
    supraminimal_certificate,
    tono_family,
    valuation_bundle,
)
from valuation_lab.configurations import SATELLITE, build_configuration, classify_points
from valuation_lab.invariants import (
    maximal_contact_values,
    multiplicity_sequence,
    noether_pairing,
)


def cfg3():
    return build_configuration([[], [1], [2, 1]])


def m_adic():
    return build_configuration([[]])


def two_free():
    return build_configuration([[], [1]])


def all_tails(cfg, length):
    """Every admissible choice sequence for a satellite tail of given length."""
    results = []

    def rec(choices, last_index, last_prox):
        if len(choices) == length:
            results.append(list(choices))
            return
        for c in sorted(last_prox):
            rec(choices + [c], last_index + 1, {last_index, c})

    rec([cfg.size - 1], cfg.size + 1, {cfg.size, cfg.size - 1})
    return results


class TestCeilPlus:
    @pytest.mark.parametrize(
        "x, expected",
        [
            (Fraction(-1, 2), 0),
            (Fraction(0), 0),
            (Fraction(1, 3), 1),
            (Fraction(7, 2), 4),
            (Fraction(4), 4),
            (Fraction(-5), 0),
        ],
    )
    def test_values(self, x, expected):
        assert ceil_plus(x) == expected


class TestDelta0:
    def test_m_adic_convention(self):
        assert delta0(m_adic()) == -1

    def test_three_points(self):
        assert delta0(cfg3()) == 0

    @pytest.mark.parametrize("a, e", [(3, 0), (4, 1), (5, 2), (6, 3)])
    def test_family_threshold_equals_e(self, a, e):
        assert tono_family(a, e).bundle.delta0 == e


class TestDegreeLowerBound:
    def test_m_adic(self):
        assert degree_lower_bound(m_adic(), (5,)) == 5

    def test_three_points(self):
        assert degree_lower_bound(cfg3(), (1, 1, 1)) == Fraction(4, 5)

    def test_tono_curve_is_admitted(self):
        fam = tono_family(3, 0)
        v = fam.bundle.record.multiplicities.values
        bound = degree_lower_bound(fam.bundle.cfg, v)
        assert bound == Fraction(36, 5)
        assert bound <= fam.curve_degree

    def test_tangent_line_is_admitted(self):
        cfg = cfg3()
        line = tuple(int(i <= cfg.tangent_count) for i in range(1, cfg.size + 1))
        assert degree_lower_bound(cfg, line) <= 1

    def test_rejects_bad_vectors(self):
        with pytest.raises(ValueError):
            degree_lower_bound(cfg3(), (1, 1))
        with pytest.raises(ValueError):
            degree_lower_bound(cfg3(), (1, -1, 0))

    def test_every_small_chain_matches_the_point_pairing(self, small_chains):
        """The run walk equals the pairing with the listed multiplicity
        sequence on all 2,585 chains of at most 10 points, at m = v, the
        tangent line and a seeded random vector."""
        rng = random.Random(18)
        for lists in small_chains:
            cfg = build_configuration(lists)
            v = multiplicity_sequence(cfg).values
            bound = valuation_bundle(cfg).mu_hat_bound
            line = tuple(int(i <= cfg.tangent_count) for i in range(1, cfg.size + 1))
            noise = tuple(rng.randint(0, 9) for _ in v)
            for m in (v, line, noise):
                expected = Fraction(noether_pairing(cfg, v, m), bound)
                assert degree_lower_bound(cfg, m) == expected, (lists, m)


class TestMuHatUpperBound:
    def test_m_adic(self):
        assert valuation_bundle(m_adic()).mu_hat_bound == 1

    def test_tono_closed_forms(self):
        assert valuation_bundle(tono_family(3, 0).bundle.cfg).mu_hat_bound == 15
        assert valuation_bundle(tono_family(4, 1).bundle.cfg).mu_hat_bound == 44

    @given(configurations())
    def test_square_dominates_inverse_volume(self, cfg):
        bound = valuation_bundle(cfg).mu_hat_bound
        assert bound * bound >= maximal_contact_values(cfg).beta_bar[-1]


class TestSupraminimalCertificate:
    def test_tono30(self):
        cfg = tono_family(3, 0).bundle.cfg
        assert supraminimal_certificate(cfg, 108, 10) == Fraction(54, 5)

    def test_tono41(self):
        cfg = tono_family(4, 1).bundle.cfg
        assert supraminimal_certificate(cfg, 640, 17) == Fraction(640, 17)

    def test_minimal_valuation_has_no_certificate(self):
        assert supraminimal_certificate(m_adic(), 1, 1) is None

    def test_rejects_nonpositive_data(self):
        with pytest.raises(ValueError):
            supraminimal_certificate(m_adic(), 0, 1)


class TestRatioBounds:
    def test_single_values(self):
        assert valuation_bundle(m_adic()).ratio_bound == 0
        assert valuation_bundle(tono_family(3, 0).bundle.cfg).ratio_bound == -1
        assert valuation_bundle(tono_family(4, 1).bundle.cfg).ratio_bound == -2

    def test_multi_reduces_to_single(self):
        bundle = tono_family(3, 0).bundle
        mv = multi_valuation([bundle])
        assert multi_ratio_bound(mv) == valuation_bundle(bundle.cfg).ratio_bound

    def test_two_copies(self):
        bundle = tono_family(3, 0).bundle
        mv = multi_valuation([bundle, bundle])
        assert multi_ratio_bound(mv) == -3

    def test_three_thresholds(self):
        bundles = [tono_family(3, 0).bundle, tono_family(4, 1).bundle,
                   tono_family(5, 2).bundle]
        assert [b.delta0 for b in bundles] == [0, 1, 2]
        assert multi_ratio_bound(multi_valuation(bundles)) == -8


class TestLambdaLowerBound:
    def test_tono30(self):
        mv = multi_valuation([tono_family(3, 0).bundle], aligned_mu=2)
        assert lambda_lower_bound(mv) == -1

    def test_tono41(self):
        mv = multi_valuation([tono_family(4, 1).bundle], aligned_mu=2)
        assert lambda_lower_bound(mv) == -2

    def test_two_m_adic_points(self):
        bundles = [valuation_bundle(m_adic()), valuation_bundle(m_adic())]
        mv = multi_valuation(bundles, aligned_mu=2)
        assert lambda_lower_bound(mv) == -1

    def test_default_mu(self):
        assert multi_valuation([valuation_bundle(m_adic())]).aligned_mu == 1
        assert (
            multi_valuation([valuation_bundle(m_adic())] * 2).aligned_mu == 2
        )
        cfg = build_configuration([[], [1], [2], [3]], tangent_count=4)
        assert multi_valuation([valuation_bundle(cfg)]).aligned_mu == 4

    def test_mu_validation(self):
        cfg = build_configuration([[], [1], [2], [3]], tangent_count=4)
        with pytest.raises(ValueError):
            multi_valuation([valuation_bundle(cfg)], aligned_mu=3)
        with pytest.raises(ValueError):
            multi_valuation([], aligned_mu=2)
        with pytest.raises(ValueError) as caught:
            multi_valuation([valuation_bundle(m_adic())] * 2, aligned_mu=1)
        assert str(caught.value) == (
            "aligned_mu must be at least 2 once two points exist"
        )


class TestCombinatorialLambdaBound:
    def test_satellite_case(self):
        assert combinatorial_lambda_bound(cfg3()) == -1
        assert combinatorial_lambda_bound(tono_family(3, 0).bundle.cfg) == -1
        assert combinatorial_lambda_bound(tono_family(4, 1).bundle.cfg) == -2

    def test_free_case(self):
        assert combinatorial_lambda_bound(two_free()) == -1

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            combinatorial_lambda_bound(m_adic())

    @given(configurations())
    def test_dominates_trivial_bound(self, cfg):
        if cfg.size < 2:
            return
        import math

        contact = maximal_contact_values(cfg).beta_bar
        inverse_normalized = Fraction(contact[-1], contact[0] ** 2)
        bound = combinatorial_lambda_bound(cfg)
        assert bound >= 1 - math.ceil(inverse_normalized) >= 1 - cfg.size

    @given(proximity_chains())
    def test_satellite_case_matches_ratio_bound(self, chain):
        lists, tangent = chain
        cfg = build_configuration(lists, tangent_count=tangent)
        if len(lists) >= 3 and len(lists[2]) == 2:
            assert combinatorial_lambda_bound(cfg) == valuation_bundle(cfg).ratio_bound


class TestSatelliteTailComparison:
    def test_two_free_points(self):
        comparison = satellite_tail_comparison(two_free(), [1])
        assert comparison.delta0_before == 0
        assert comparison.delta0_after == 0
        assert comparison.difference == Fraction(1, 6)
        assert comparison.delta0_non_increasing
        assert comparison.difference_in_unit_interval

    def test_tono30_tail(self):
        comparison = satellite_tail_comparison(tono_family(3, 0).bundle.cfg, [16])
        assert comparison.delta0_after <= 0
        assert comparison.difference == Fraction(1, 162)

    def test_tono41_three_point_tail(self):
        cfg = tono_family(4, 1).bundle.cfg
        for choices in all_tails(cfg, 3):
            comparison = satellite_tail_comparison(cfg, choices)
            assert comparison.delta0_after <= 1
            assert comparison.difference_in_unit_interval

    @given(configurations(max_points=10), st.integers(1, 5))
    @settings(max_examples=80, deadline=None)
    def test_exhaustive_choices_on_random_chains(self, cfg, length):
        if cfg.size < 2 or classify_points(cfg)[-1] == SATELLITE:
            return
        for choices in all_tails(cfg, min(length, 3)):
            comparison = satellite_tail_comparison(cfg, choices)
            assert comparison.delta0_non_increasing
            assert comparison.difference_in_unit_interval


class TestTonoFamily:
    @pytest.mark.parametrize(
        "a, e, contact, mu_hat, bound, ratio",
        [
            (3, 0, (6, 9, 34, 108), Fraction(54, 5), 15, Fraction(-2, 25)),
            (4, 1, (12, 16, 73, 640), Fraction(640, 17), 44, Fraction(-351, 289)),
            (5, 2, (20, 25, 136, 2250), Fraction(1125, 13), 95, Fraction(-787, 338)),
        ],
    )
    def test_closed_forms(self, a, e, contact, mu_hat, bound, ratio):
        fam = tono_family(a, e)
        assert fam.bundle.record.beta_bar == contact
        assert fam.bundle.record.tangent_value == a * a
        assert fam.bundle.delta0 == e
        assert fam.mu_hat == mu_hat
        assert fam.mu_hat_bound == bound
        assert fam.ratio == ratio

    def test_fields_agree_with_the_public_operations(self):
        fam = tono_family(3, 0)
        cfg = fam.bundle.cfg
        assert valuation_bundle(cfg).mu_hat_bound == fam.mu_hat_bound
        assert delta0(cfg) == fam.e
        assert (
            supraminimal_certificate(cfg, fam.curve_value, fam.curve_degree)
            == fam.mu_hat
        )
        # The curve's strict transform passes through every centre with the
        # valuation's multiplicities, so its square is d^2 - sum of v_i^2.
        v = multiplicity_sequence(cfg).values
        square = fam.curve_degree**2 - sum(x * x for x in v)
        assert Fraction(square, fam.curve_degree**2) == fam.ratio
        assert fam.ratio >= -(1 + fam.bundle.delta0)

    def test_trailing_free_closed_form(self):
        fam = tono_family(3, 0)
        assert fam.trailing_free == 6
        assert fam.bundle.cfg.size == 17

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            tono_family(2, 0)
        with pytest.raises(ValueError):
            tono_family(3, -1)


class TestBoundReport:
    def test_single_valuation(self):
        bundle = tono_family(4, 1).bundle
        report = bound_report(bundle)
        # beta_bar_last = 3 * 4**4 - 2 * 4**3 = 640 over the mu-hat bound 44.
        assert report == (Fraction(640, 44), 44, -2, -2, 1 - 362)
        assert lambda_lower_bound(multi_valuation([bundle])) == -2

    def test_reports_label_every_field_in_order(self):
        assert list(reports._BOUNDS) == list(BoundReport._fields)

    def test_m_adic_has_no_combinatorial_entry(self):
        report = bound_report(valuation_bundle(m_adic()))
        assert report.combinatorial_lambda_bound is None
        assert report.degree_bound == 1

    @given(configurations())
    @settings(max_examples=60)
    def test_combinatorial_dominates_trivial(self, cfg):
        report = bound_report(valuation_bundle(cfg))
        if report.combinatorial_lambda_bound is not None:
            assert report.combinatorial_lambda_bound >= report.trivial_lambda_bound
