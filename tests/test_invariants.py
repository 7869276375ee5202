import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import configurations, continued_fraction, proximity_chains
from valuation_lab.bounds import tono_family
from valuation_lab.configurations import (
    Configuration,
    build_configuration,
    classify_points,
)
from valuation_lab.errors import ReconstructionError
from valuation_lab.invariants import (
    curvette_vector,
    from_maximal_contact,
    invariant_record,
    maximal_contact_values,
    multiplicity_sequence,
    noether_pairing,
    normalized_volume,
    puiseux_exponents,
)

TONO30_MULTIPLICITIES = (6,) + (3,) * 7 + (1,) * 9


def cfg3():
    return build_configuration([[], [1], [2, 1]])


class TestMultiplicitySequence:
    def test_single_point(self):
        assert multiplicity_sequence(build_configuration([[]])).values == (1,)

    def test_three_points(self):
        assert multiplicity_sequence(cfg3()).values == (2, 1, 1)

    def test_tono(self):
        cfg = tono_family(3, 0).bundle.cfg
        v = multiplicity_sequence(cfg).values
        assert v == TONO30_MULTIPLICITIES
        assert sum(x * x for x in v) == 108

    @given(proximity_chains())
    def test_proximity_equalities_hold(self, chain):
        lists, tangent = chain
        cfg = build_configuration(lists, tangent_count=tangent)
        v = multiplicity_sequence(cfg).values
        assert v[-1] == 1
        for i in range(1, cfg.size):
            incoming = [
                j for j, targets in enumerate(lists, start=1) if i in targets
            ]
            assert v[i - 1] == sum(v[j - 1] for j in incoming)

    @given(configurations())
    def test_values_positive_and_non_increasing(self, cfg):
        v = multiplicity_sequence(cfg).values
        assert all(x >= 1 for x in v)
        assert all(a >= b for a, b in zip(v, v[1:]))


class TestCurvetteVector:
    def test_first_point(self):
        assert curvette_vector(cfg3(), 1) == (1, 0, 0)

    def test_full_chain_equals_multiplicities(self):
        cfg = cfg3()
        assert curvette_vector(cfg, 3) == multiplicity_sequence(cfg).values

    def test_smooth_germ_through_two_points(self):
        assert curvette_vector(cfg3(), 2) == (1, 1, 0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            curvette_vector(cfg3(), 4)

    @given(proximity_chains())
    def test_truncated_recursion_by_direct_summation(self, chain):
        lists, tangent = chain
        cfg = build_configuration(lists, tangent_count=tangent)
        for k in range(1, cfg.size + 1):
            w = curvette_vector(cfg, k)
            assert w[k - 1] == 1
            assert all(x == 0 for x in w[k:])
            for i in range(1, k):
                expected = sum(
                    w[j - 1]
                    for j, targets in enumerate(lists, start=1)
                    if j <= k and i in targets
                )
                assert w[i - 1] == expected


class TestNoetherPairing:
    def test_tono_self_pairing(self):
        cfg = tono_family(3, 0).bundle.cfg
        v = multiplicity_sequence(cfg).values
        assert noether_pairing(cfg, v, v) == 108

    def test_curvette_against_multiplicities(self):
        cfg = cfg3()
        v = multiplicity_sequence(cfg).values
        assert noether_pairing(cfg, curvette_vector(cfg, 2), v) == 3

    def test_zero_vector(self):
        cfg = cfg3()
        v = multiplicity_sequence(cfg).values
        assert noether_pairing(cfg, (0, 0, 0), v) == 0

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            noether_pairing(cfg3(), (1, 2), (1, 2, 3))


class TestMaximalContactValues:
    def test_single_point(self):
        contact = maximal_contact_values(build_configuration([[]]))
        assert contact.beta_bar == (1, 1)

    def test_three_points(self):
        contact = maximal_contact_values(cfg3())
        assert contact.beta_bar == (2, 3, 6)
        assert contact.gcd_chain == (2, 1, 1)

    def test_tono_values(self):
        assert tono_family(3, 0).bundle.record.beta_bar == (6, 9, 34, 108)
        assert tono_family(4, 1).bundle.record.beta_bar == (12, 16, 73, 640)

    @given(configurations())
    def test_final_value_is_sum_of_squares(self, cfg):
        v = multiplicity_sequence(cfg).values
        contact = maximal_contact_values(cfg)
        assert contact.beta_bar[-1] == sum(x * x for x in v)

    @given(configurations())
    def test_gcd_chain_non_increasing_and_divides_last(self, cfg):
        contact = maximal_contact_values(cfg)
        chain = contact.gcd_chain
        assert all(a >= b for a, b in zip(chain, chain[1:]))
        assert contact.beta_bar[-1] % chain[-2 if len(chain) > 1 else -1] == 0

    @given(configurations())
    def test_values_strictly_increase(self, cfg):
        beta = maximal_contact_values(cfg).beta_bar
        if cfg.size == 1:
            assert beta == (1, 1)
        else:
            assert all(a < b for a, b in zip(beta, beta[1:]))


class TestPuiseuxExponents:
    def test_three_points(self):
        exps = puiseux_exponents(cfg3())
        assert exps.ratios == ((1, 1), (3, 2), (1, 1))
        assert exps.run_length_tables == ((1, 2), (1,))

    def test_two_free_points(self):
        exps = puiseux_exponents(build_configuration([[], [1]]))
        assert exps.ratios == ((1, 1), (2, 1))
        assert exps.run_length_tables == ((2,),)

    def test_tono_blocks(self):
        exps = puiseux_exponents(tono_family(3, 0).bundle.cfg)
        assert exps.ratios == ((1, 1), (3, 2), (19, 3), (7, 1))
        assert exps.run_length_tables == ((1, 2), (6, 3), (7,))

    @given(configurations())
    def test_first_exponent_matches_contact_ratio(self, cfg):
        contact = maximal_contact_values(cfg).beta_bar
        p, q = puiseux_exponents(cfg).ratios[1]
        if len(contact) >= 3:
            assert Fraction(p, q) == Fraction(contact[1], contact[0])

    @given(configurations())
    def test_middle_exponents_non_integral(self, cfg):
        exps = puiseux_exponents(cfg).ratios
        assert exps[0] == (1, 1)
        assert exps[-1][1] == 1
        for p, q in exps[1:-1]:
            assert p > q > 1


class TestVolumes:
    """The volume is 1 / beta_bar_last, so the record's last contact value is
    the inverse volume."""

    def test_single_point(self):
        cfg = build_configuration([[]])
        assert invariant_record(cfg).beta_bar[-1] == 1
        assert normalized_volume(cfg) == 1

    def test_three_points(self):
        assert invariant_record(cfg3()).beta_bar[-1] == 6
        assert normalized_volume(cfg3()) == Fraction(2, 3)

    def test_tono(self):
        cfg = tono_family(4, 1).bundle.cfg
        assert invariant_record(cfg).beta_bar[-1] == 640
        assert normalized_volume(cfg) == Fraction(9, 40)

    @given(configurations())
    def test_normalization(self, cfg):
        contact = maximal_contact_values(cfg).beta_bar
        volume = Fraction(1, invariant_record(cfg).beta_bar[-1])
        assert normalized_volume(cfg) == contact[0] ** 2 * volume


class TestTangentValue:
    def test_single_point_convention(self):
        assert invariant_record(build_configuration([[]])).tangent_value == 1

    def test_three_points(self):
        assert invariant_record(cfg3()).tangent_value == 3

    def test_tono(self):
        assert invariant_record(tono_family(3, 0).bundle.cfg).tangent_value == 9

    @given(configurations())
    def test_range(self, cfg):
        t = invariant_record(cfg).tangent_value
        contact = maximal_contact_values(cfg).beta_bar
        if cfg.size == 1:
            assert t == 1
        else:
            assert contact[0] < t <= contact[1]

    def test_second_value_when_third_point_is_satellite(self):
        # With p_3 satellite the tangent line stops at p_2, so its value is
        # the second contact value.
        cfg = cfg3()
        t = invariant_record(cfg).tangent_value
        assert t == maximal_contact_values(cfg).beta_bar[1]

    @given(configurations())
    def test_invariant_under_free_extension(self, cfg):
        if cfg.size < 2:
            return
        # Three free points lengthen the final run of 1s.
        *head, (value, count) = cfg.runs
        extended = Configuration((*head, (value, count + 3)), cfg.tangent_count)
        before = invariant_record(cfg).tangent_value
        assert invariant_record(extended).tangent_value == before


class TestFromMaximalContact:
    def test_single_point(self):
        assert from_maximal_contact((1, 1)).size == 1

    def test_three_points(self):
        cfg = from_maximal_contact((2, 3, 6))
        assert cfg.proximity_lists() == [[], [1], [1, 2]]

    def test_tono_resolution_plus_free_chain(self):
        cfg = from_maximal_contact((6, 9, 34), trailing_free=6)
        assert multiplicity_sequence(cfg).values == TONO30_MULTIPLICITIES
        assert maximal_contact_values(cfg).beta_bar == (6, 9, 34, 108)

    def test_prefix_input_leaves_last_value_implied(self):
        cfg = from_maximal_contact((6, 9, 34))
        assert maximal_contact_values(cfg).beta_bar == (6, 9, 34, 102)

    def test_free_chain(self):
        cfg = from_maximal_contact((1, 5))
        assert cfg.size == 5
        assert classify_points(cfg) == ["free"] * 5

    @pytest.mark.parametrize(
        "sequence",
        [
            (2,),  # too short
            (4, 6),  # terminates at multiplicity 2
            (2, 2),  # no chain realizes it
            (6, 9, 21),  # middle block cannot close
            (2, 4, 7),  # gcd chain stalls
            (2, 3, 5),  # too small to open a block
            (6, 9, 34, 101),  # below the minimal closing value 102
        ],
    )
    def test_rejects_unrealizable_sequences(self, sequence):
        with pytest.raises(ReconstructionError):
            from_maximal_contact(sequence)

    def test_rejects_a_negative_trailing_free(self):
        with pytest.raises(ReconstructionError) as caught:
            from_maximal_contact((2, 3), trailing_free=-1)
        assert str(caught.value) == "trailing_free must be non-negative"

    @given(configurations())
    @settings(max_examples=150)
    def test_round_trip_reproduces_the_chain(self, cfg):
        contact = maximal_contact_values(cfg).beta_bar
        rebuilt = from_maximal_contact(contact)
        assert multiplicity_sequence(rebuilt).values == (
            multiplicity_sequence(cfg).values
        )
        assert rebuilt.proximity_lists() == cfg.proximity_lists()


# The rejections from_maximal_contact raises itself, before building anything.
OWN_REJECTIONS = (
    "need at least two contact values",
    "contact values must be positive",
    "cannot be smaller than the first",
    "gcd chain must strictly decrease",
    "too small to open a new block",
    "sequence does not terminate",
)


def built_or_rejected(sequence, trailing_free=0):
    """The configuration built from ``sequence``, or None when one of the
    function's own input checks rejects it."""
    try:
        return from_maximal_contact(sequence, trailing_free=trailing_free)
    except ReconstructionError as exc:
        assert any(phrase in str(exc) for phrase in OWN_REJECTIONS), exc
        return None


def gives_back_its_prefix(sequence):
    """Build from ``sequence`` and check the record's contact values start
    with it; True when built, False when rejected."""
    cfg = built_or_rejected(sequence)
    if cfg is None:
        return False
    assert invariant_record(cfg).beta_bar[: len(sequence)] == tuple(sequence)
    return True


class TestContactValuesComeBack:
    """from_maximal_contact does not re-derive its output: its docstring
    proves the record gives the contact values back, and these tests check
    the claim, exhaustively on small values and by hypothesis beyond."""

    def test_every_sequence_of_two_or_three_small_values(self):
        accepted = 0
        for b0 in range(1, 13):
            for b1 in range(b0, 49):
                accepted += gives_back_its_prefix((b0, b1))
                for b2 in range(1, 201):
                    accepted += gives_back_its_prefix((b0, b1, b2))
        assert accepted == 21542

    def test_genus_three_over_gcd_admissible_prefixes(self):
        """Every (b0, b1, b2) that opens two falling blocks, closed by every
        b3 whose y_3 lies near the smallest that opens a third block."""
        accepted = 0
        for b0 in range(1, 13):
            for b1 in range(b0, 49):
                e1 = math.gcd(b0, b1)
                for b2 in range(1, 201):
                    y2 = b2 - b0 // e1 * b1 + e1
                    e2 = math.gcd(e1, y2)
                    if y2 < e1 or e2 in (1, e1):
                        continue
                    for y3 in range(e2 - 1, e2 + 15):
                        accepted += gives_back_its_prefix(
                            (b0, b1, b2, y3 + e1 // e2 * b2 - e2)
                        )
        assert accepted == 4092

    @given(st.data(), st.integers(0, 50))
    @settings(max_examples=200)
    def test_larger_values_with_and_without_a_free_tail(self, data, trailing):
        # A falling gcd chain e_0 > ... > e_g = 1, each a multiple of the next.
        factors = data.draw(st.lists(st.integers(2, 7), max_size=4))
        gcds = [math.prod(factors[j:]) for j in range(len(factors) + 1)]
        beta = [gcds[0]]
        for j in range(1, len(gcds)):
            n = gcds[j - 1] // gcds[j]
            coprime = st.integers(n + 1, 10**9).filter(lambda u: math.gcd(u, n) == 1)
            y = gcds[j] * data.draw(coprime)
            previous = gcds[j - 2] if j >= 2 else gcds[0]
            beta.append(y + previous // gcds[j - 1] * beta[-1] - gcds[j - 1])
        if len(beta) == 1 or data.draw(st.booleans()):
            # A final block at gcd 1: a run of y ones, its first point shared.
            y = data.draw(st.integers(1, 10**9))
            previous = gcds[-2] if len(gcds) >= 2 else 1
            beta.append(y + previous * beta[-1] - 1)
        # Sometimes nudge one value, which may or may not stay realizable.
        position = data.draw(st.integers(0, len(beta) - 1))
        beta[position] += data.draw(st.sampled_from([0, 0, -1, 1]))
        cfg = built_or_rejected(beta)
        if cfg is None:
            return
        record = invariant_record(cfg)
        assert record.beta_bar[: len(beta)] == tuple(beta)
        longer = from_maximal_contact(beta, trailing_free=trailing)
        assert longer.size == cfg.size + trailing
        assert invariant_record(longer).beta_bar == (
            *record.beta_bar[:-1], record.beta_bar[-1] + trailing
        )


class TestInvariantRecord:
    def test_bundles_everything(self):
        record = invariant_record(cfg3())
        assert record.multiplicities.values == (2, 1, 1)
        assert record.beta_bar == (2, 3, 6)
        assert record.beta_bar[-1] == 6
        assert record.tangent_value == 3
        assert not record.is_m_adic

    def test_m_adic_flag(self):
        assert invariant_record(build_configuration([[]])).is_m_adic

    @given(configurations())
    def test_gcd_chain_matches_math_gcd(self, cfg):
        record = invariant_record(cfg)
        beta = record.beta_bar
        expected = []
        g = 0
        for b in beta:
            g = math.gcd(g, b)
            expected.append(g)
        assert record.gcd_chain == tuple(expected)

    def test_each_gcd_step_divides_by_the_exponent_denominator(
        self, small_chains, fuzz_corpus
    ):
        """The record steps the gcd chain as e_j = e_{j-1} / q_j, relying on
        q_j dividing e_{j-1}; ``test_gcd_chain_matches_math_gcd`` is the
        independent oracle for the values themselves."""
        tono = [tono_family(a, e).bundle.cfg for a in range(3, 13) for e in range(4)]
        chains = [*map(build_configuration, small_chains), *fuzz_corpus, *tono]
        for cfg in chains:
            record = invariant_record(cfg)
            for j in range(1, len(record.gcd_chain)):
                q = record.ratios[j][1]
                assert q * record.gcd_chain[j] == record.gcd_chain[j - 1], cfg
        assert len(chains) == 2585 + 1000 + 40


@given(st.lists(st.integers(1, 10**12), min_size=1, max_size=20))
def test_continued_fraction_by_integer_convergents(digits):
    """The first block of the chain with contact values (q, p) has the run
    lengths of p/q's continued fraction, which ``invariant_record`` folds
    to its exponent as it reads them."""
    value = continued_fraction(digits)
    cfg = from_maximal_contact([value.denominator, value.numerator])
    p, q = invariant_record(cfg).ratios[1]
    assert math.gcd(p, q) == 1
    assert Fraction(p, q) == value
