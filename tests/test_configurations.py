import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import all_chains, configurations, proximate_points, proximity_chains
from valuation_lab.bounds import tono_family, valuation_bundle
from valuation_lab.checks import identity_checks
from valuation_lab.configurations import (
    FREE,
    Configuration,
    SATELLITE,
    block_decomposition,
    build_configuration,
    classify_points,
    extend_with_satellite_tail,
    max_tangent_count,
    satellite_targets,
)
from valuation_lab.errors import InvalidConfigurationError, ReconstructionError
from valuation_lab.invariants import from_maximal_contact, invariant_record


def cfg3():
    return build_configuration([[], [1], [2, 1]])


class TestBuildConfiguration:
    def test_single_point(self):
        cfg = build_configuration([[]])
        assert cfg.size == 1
        assert cfg.proximity_lists() == [[]]
        assert cfg.tangent_count == 1

    def test_three_points_with_satellite(self):
        cfg = cfg3()
        assert cfg.proximity_lists() == [[], [1], [1, 2]]
        assert cfg.tangent_count == 2

    def test_satellite_target_of_satellite_is_admissible(self):
        # p_4 -> {3, 1} is fine because p_3 is itself proximate to p_1.
        cfg = build_configuration([[], [1], [2, 1], [3, 1]])
        assert classify_points(cfg) == [FREE, FREE, SATELLITE, SATELLITE]

    def test_rejects_unreachable_satellite_target(self):
        with pytest.raises(InvalidConfigurationError):
            build_configuration([[], [1], [2], [3, 1]])

    def test_rejects_missing_predecessor(self):
        with pytest.raises(InvalidConfigurationError):
            build_configuration([[], [1], [1]])

    def test_rejects_self_or_forward_targets(self):
        with pytest.raises(InvalidConfigurationError):
            build_configuration([[], [2]])

    def test_rejects_more_than_two_targets(self):
        with pytest.raises(InvalidConfigurationError):
            build_configuration([[], [1], [2, 1], [3, 2, 1]])

    def test_rejects_nonempty_first_point(self):
        with pytest.raises(InvalidConfigurationError):
            build_configuration([[1]])

    @pytest.mark.parametrize(
        "lists, point",
        [([[], 3], 2), ([[], [1], None], 3), ([5], 1)],
        ids=["number", "null", "number at p_1"],
    )
    def test_rejects_a_non_iterable_entry_naming_its_point(self, lists, point):
        with pytest.raises(InvalidConfigurationError) as caught:
            build_configuration(lists)
        assert str(caught.value) == f"p_{point}: targets must be a list of integers"

    def test_rejects_tangent_count_two_on_single_point(self):
        with pytest.raises(InvalidConfigurationError) as caught:
            build_configuration([[]], tangent_count=2)
        assert str(caught.value) == "tangent_count must be 1 for a single point"

    def test_rejects_tangent_count_one_on_longer_chain(self):
        with pytest.raises(InvalidConfigurationError) as caught:
            build_configuration([[], [1]], tangent_count=1)
        assert str(caught.value) == "tangent_count must lie in 2..2 for 2 points"

    def test_rejects_tangent_through_satellite(self):
        with pytest.raises(InvalidConfigurationError) as caught:
            build_configuration([[], [1], [2, 1]], tangent_count=3)
        assert str(caught.value) == (
            "tangent segment cannot reach p_3: a smooth line cannot pass through "
            "a satellite point"
        )

    def test_tangent_can_follow_free_run(self):
        cfg = build_configuration([[], [1], [2], [3]], tangent_count=4)
        assert cfg.tangent_count == 4

    @given(proximity_chains())
    def test_round_trip_through_proximity_lists(self, chain):
        lists, tangent = chain
        cfg = build_configuration(lists, tangent_count=tangent)
        assert cfg.proximity_lists() == lists
        rebuilt = build_configuration(
            cfg.proximity_lists(), tangent_count=cfg.tangent_count
        )
        assert rebuilt == cfg


class TestClassifyPoints:
    def test_single_point_is_free(self):
        assert classify_points(build_configuration([[]])) == [FREE]

    def test_cardinality_rule(self):
        assert classify_points(cfg3()) == [FREE, FREE, SATELLITE]

    def test_tono_satellites(self):
        # Forced by the closed-form contact values of the family: the block
        # structure puts the satellites at 3, 10 and 11.
        cfg = tono_family(3, 0).bundle.cfg
        satellites = [
            i + 1 for i, kind in enumerate(classify_points(cfg)) if kind == SATELLITE
        ]
        assert satellites == [3, 10, 11]


class TestBlockDecomposition:
    def test_single_point(self):
        decomposition = block_decomposition(build_configuration([[]]))
        assert decomposition.genus_count == 0
        assert decomposition.blocks == ((1, 1),)

    def test_three_points(self):
        decomposition = block_decomposition(cfg3())
        assert decomposition.genus_count == 1
        assert decomposition.blocks == ((1, 3), (3, 3))
        assert decomposition.last_free_indices == (2,)

    def test_tono(self):
        decomposition = block_decomposition(tono_family(3, 0).bundle.cfg)
        assert decomposition.genus_count == 2
        assert decomposition.blocks == ((1, 3), (3, 11), (11, 17))

    @given(configurations())
    def test_blocks_cover_chain_and_overlap_at_endpoints(self, cfg):
        decomposition = block_decomposition(cfg)
        blocks = decomposition.blocks
        assert blocks[0][0] == 1
        assert blocks[-1][1] == cfg.size
        for (_, right), (left, _) in zip(blocks, blocks[1:]):
            assert right == left

    @given(configurations())
    def test_free_and_satellite_ranges_within_blocks(self, cfg):
        decomposition = block_decomposition(cfg)
        labels = classify_points(cfg)
        for (lo, hi), r in zip(decomposition.blocks, decomposition.last_free_indices):
            assert all(labels[i - 1] == FREE for i in range(lo + 1, r + 1))
            assert all(labels[i - 1] == SATELLITE for i in range(r + 1, hi + 1))
        tail_start = decomposition.boundaries[-2]
        assert all(
            labels[i - 1] == FREE for i in range(tail_start + 1, cfg.size + 1)
        )


class TestSatelliteTail:
    def test_forced_first_point(self):
        cfg = extend_with_satellite_tail(build_configuration([[], [1]]), [1])
        assert cfg.proximity_lists() == [[], [1], [1, 2]]

    def test_two_point_tail_choosing_second_target(self):
        cfg = extend_with_satellite_tail(build_configuration([[], [1]]), [1, 2])
        assert cfg.proximity_lists() == [[], [1], [1, 2], [2, 3]]

    def test_first_choice_must_be_the_forced_one(self):
        with pytest.raises(InvalidConfigurationError):
            extend_with_satellite_tail(build_configuration([[], [1]]), [2])

    def test_rejects_tail_after_satellite(self):
        with pytest.raises(InvalidConfigurationError):
            extend_with_satellite_tail(cfg3(), [2])

    def test_rejects_single_point_base(self):
        with pytest.raises(InvalidConfigurationError):
            extend_with_satellite_tail(build_configuration([[]]), [0])

    def test_rejection_names_the_admissible_targets(self):
        cfg = build_configuration([[], [1], [2, 1], [3]])
        with pytest.raises(InvalidConfigurationError) as info:
            extend_with_satellite_tail(cfg, [3, 1])
        assert str(info.value) == (
            "tail point 2: target p_1 is not admissible (options: [3, 4])"
        )

    def test_tono_tail_is_forced(self):
        cfg = tono_family(3, 0).bundle.cfg
        extended = extend_with_satellite_tail(cfg, [16])
        assert extended.size == 18
        assert extended.proximity_lists()[-1] == [16, 17]

    def test_empty_tail_is_identity(self):
        cfg = build_configuration([[], [1]])
        assert extend_with_satellite_tail(cfg, []) is cfg

    @given(configurations(max_points=10), st.integers(1, 4))
    @settings(max_examples=60)
    def test_tail_adds_exactly_one_block(self, cfg, length):
        if cfg.size < 2 or classify_points(cfg)[-1] == SATELLITE:
            return
        # Re-choosing the same oldest target stays admissible along the tail.
        choices = [cfg.size - 1] * length
        extended = extend_with_satellite_tail(cfg, choices)
        before = block_decomposition(cfg).genus_count
        after = block_decomposition(extended).genus_count
        assert after == before + 1


class TestSize:
    def test_size_is_read_without_the_run_structure(self):
        # No chain ends in multiplicity 2, so the structure cannot be derived.
        cfg = Configuration(((3, 1), (2, 3)), 2)
        assert cfg.size == 4
        with pytest.raises(ReconstructionError):
            cfg.structure

    def test_size_follows_replaced_runs(self):
        cfg = from_maximal_contact((2, 7))
        longer = dataclasses.replace(cfg, runs=((2, 3), (1, 5)))
        assert (cfg.size, longer.size) == (5, 8)
        assert longer == Configuration(((2, 3), (1, 5)), cfg.tangent_count)

    @pytest.mark.parametrize("runs", [(), ((1, 0),)], ids=["no runs", "no points"])
    def test_an_empty_chain_is_refused_as_a_build_refuses_it(self, runs):
        message = "a configuration needs at least one point"
        assert outcome(build_configuration, []) == message
        assert outcome(Configuration, runs, 0) == message
        cfg = from_maximal_contact((2, 7))
        assert outcome(dataclasses.replace, cfg, runs=runs) == message


class TestTangentHandling:
    @given(configurations())
    def test_classification_ignores_tangent_flags(self, cfg):
        if cfg.size == 1:
            return
        other = build_configuration(cfg.proximity_lists(), 2)
        assert classify_points(other) == classify_points(cfg)
        assert block_decomposition(other) == block_decomposition(cfg)

    @given(configurations())
    def test_max_tangent_count_is_admissible_and_maximal(self, cfg):
        k = max_tangent_count(cfg)
        lists = cfg.proximity_lists()
        build_configuration(lists, k)
        if k < cfg.size:
            with pytest.raises(InvalidConfigurationError):
                build_configuration(lists, k + 1)


def outcome(make, *args, **kwargs):
    """What ``make`` returns, or the message of the InvalidConfigurationError
    it raises."""
    try:
        return make(*args, **kwargs)
    except InvalidConfigurationError as exc:
        return str(exc)


class TestTangentRule:
    """The constructor checks the tangent count, so every way to make a chain
    accepts the same counts and refuses the others with the same message."""

    @pytest.mark.parametrize(
        "runs, k, message",
        [
            (((1, 3),), 7, "tangent_count must lie in 2..3 for 3 points"),
            (((1, 1),), 2, "tangent_count must be 1 for a single point"),
            # p_3 is proximate to p_1, so a line through it is no smooth line.
            (((2, 1), (1, 2)), 3, "tangent segment cannot reach p_3"),
        ],
        ids=["k above n", "one point", "a line through a satellite"],
    )
    def test_the_constructor_refuses_impossible_chains(self, runs, k, message):
        with pytest.raises(InvalidConfigurationError, match=message):
            Configuration(runs, k)

    def test_every_way_to_make_a_chain_agrees(self, small_chains):
        pairs = 0
        for lists in small_chains:
            cfg = build_configuration(lists)
            for k in range(len(lists) + 2):
                built = outcome(build_configuration, lists, k)
                assert outcome(Configuration, cfg.runs, k) == built
                assert outcome(dataclasses.replace, cfg, tangent_count=k) == built
                pairs += 1
            assert "structure" not in vars(Configuration(cfg.runs, cfg.tangent_count))
        assert pairs == 29_415

    def test_max_tangent_count_stops_before_the_first_stretch(
        self, small_chains, fuzz_corpus
    ):
        """The runs' count equals the point before the first satellite
        stretch that the lists state, or n for a chain with none."""
        contact = [
            from_maximal_contact(invariant_record(cfg).beta_bar, trailing_free=i % 3)
            for i, cfg in enumerate(fuzz_corpus)
        ]
        tono = [tono_family(a, e).bundle.cfg for a in (3, 4, 5) for e in (0, 1)]
        chains = [*map(build_configuration, small_chains), *fuzz_corpus]
        for cfg in [*chains, *contact, *tono]:
            stretches = cfg.structure.stretches
            first = stretches[0][0] - 1 if stretches else cfg.size
            assert max_tangent_count(cfg) == first


def satellite_tails(n, max_length):
    """Every admissible older-target sequence of 1..``max_length`` satellites
    after a free p_n: the first is p_{n-1}, each later one is a target of
    the point before it."""

    def grow(tail, options):
        if tail:
            yield tail
        if len(tail) < max_length:
            for c in options:
                yield from grow([*tail, c], (n + len(tail), c))

    return grow([], (n - 1,))


class TestExhaustiveSmallChains:
    """Every chain of at most 10 points against the lists it was built from;
    per-point views are derived from the runs alone, so this checks the
    derivation, not a stored copy."""

    def test_per_point_views_equal_the_input(self, small_chains):
        sizes = Counter()
        pairs = 0
        for lists in small_chains:
            sizes[len(lists)] += 1
            labels = [SATELLITE if len(targets) == 2 else FREE for targets in lists]
            incoming = [[] for _ in range(len(lists) + 1)]
            for j, targets in enumerate(lists, start=1):
                for t in targets:
                    incoming[t].append(j)
            admissible = []
            for k in range(1, len(lists) + 1):
                try:
                    cfg = build_configuration(lists, tangent_count=k)
                except InvalidConfigurationError:
                    continue
                admissible.append(k)
                assert cfg.proximity_lists() == lists
                assert proximate_points(cfg) == incoming
                assert classify_points(cfg) == labels
            pairs += len(admissible)
            assert max_tangent_count(build_configuration(lists)) == admissible[-1]
        # F_{2n-3} chains of n points (Fibonacci, F_{-1} = F_1 = 1).
        assert [sizes[n] for n in range(1, 11)] == [
            1, 1, 2, 5, 13, 34, 89, 233, 610, 1597
        ]
        assert pairs == 4181

    def test_satellite_targets_decide_every_older_target(self):
        """Every chain of at most 9 points, extended by one satellite p_i
        (i <= 10): the rule lists the sorted targets of p_{i-1}, and
        ``build_configuration`` accepts an older target t exactly when the
        rule lists it, whether the list reads [t, i - 1] (the sorted-list
        fast path) or [i - 1, t] (the validating path).  Every prefix of a
        chain is a chain, so this covers each i >= 3 of every chain of at
        most 10 points."""
        checked = 0
        for lists in all_chains(9):
            i = len(lists) + 1
            if i < 3:
                continue
            options = satellite_targets(i, lists[-1][0] if len(lists[-1]) == 2 else 0)
            assert options == sorted(lists[-1])
            for t in range(1, i - 1):
                for last in ([t, i - 1], [i - 1, t]):
                    if t in options:
                        cfg = build_configuration([*lists, last])
                        assert cfg.proximity_lists()[-1] == [t, i - 1]
                    else:
                        with pytest.raises(
                            InvalidConfigurationError, match="claims proximity"
                        ):
                            build_configuration([*lists, last])
                    checked += 1
        assert checked > 10_000

    def test_satellite_tails_equal_the_chains_built_from_lists(self):
        """``extend_with_satellite_tail`` pushes the extended ``older`` array
        into runs; building the extended lists must give the same chain."""
        cases = 0
        for lists in all_chains(8):
            n = len(lists)
            if n < 2 or len(lists[-1]) == 2:
                continue
            for k in sorted({2, max_tangent_count(build_configuration(lists))}):
                cfg = build_configuration(lists, k)
                for tail in satellite_tails(n, 3):
                    tail_lists = [[c, n + t] for t, c in enumerate(tail)]
                    expected = build_configuration(lists + tail_lists, k)
                    assert extend_with_satellite_tail(cfg, tail) == expected
                    cases += 1
        assert cases > 1000

    def test_identity_checks_pass_on_every_chain(self, small_chains):
        failures = [
            (lists, result.name, result.detail)
            for lists in small_chains
            for result in identity_checks(valuation_bundle(build_configuration(lists)))
            if not result.passed
        ]
        assert failures == []
