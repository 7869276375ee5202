import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import configurations, proximate_points, rebind
import valuation_lab.invariants as invariants
from valuation_lab.bounds import delta0, tono_family
from valuation_lab.configurations import build_configuration
from valuation_lab.invariants import from_maximal_contact, multiplicity_sequence
from valuation_lab.surface import (
    AffinePolynomial,
    HirzebruchClass,
    hirzebruch_class_of_polynomial,
    intersect_hirzebruch,
    lambda_divisor,
    nef_on_generators,
    npi_check,
)


def cfg3():
    return build_configuration([[], [1], [2, 1]])


class TestPlanePairing:
    def test_tono_curve_squared(self):
        # The family curve of degree 10 passes through every centre with the
        # valuation's multiplicities: its strict transform has square
        # d^2 - sum of v_i^2.
        cfg = tono_family(3, 0).bundle.cfg
        v = multiplicity_sequence(cfg).values
        assert 10**2 - sum(x * x for x in v) == -8


class TestHirzebruchPairing:
    @pytest.mark.parametrize("delta", [0, 1, 2, 5])
    def test_fiber_times_section(self, delta):
        fiber = HirzebruchClass(a=1, b=0, mults=(), delta=delta)
        section = HirzebruchClass(a=0, b=1, mults=(), delta=delta)
        assert intersect_hirzebruch(fiber, section) == 1
        assert intersect_hirzebruch(fiber, fiber) == 0
        assert intersect_hirzebruch(section, section) == delta

    @pytest.mark.parametrize("delta", [0, 1, 2, 5])
    def test_special_section_squared(self, delta):
        special = HirzebruchClass(a=-delta, b=1, mults=(), delta=delta)
        assert intersect_hirzebruch(special, special) == -delta

    def test_lambda_squared_example(self):
        lam = lambda_divisor(cfg3(), 0)
        assert (lam.a, lam.b, lam.mults) == (2, 3, (2, 1, 1))
        assert intersect_hirzebruch(lam, lam) == 6

    def test_rejects_index_mismatch(self):
        x = HirzebruchClass(a=1, b=0, mults=(), delta=0)
        y = HirzebruchClass(a=1, b=0, mults=(), delta=1)
        with pytest.raises(ValueError):
            intersect_hirzebruch(x, y)

    def test_rejects_size_mismatch(self):
        x = HirzebruchClass(a=1, b=0, mults=(1,), delta=0)
        y = HirzebruchClass(a=1, b=0, mults=(1, 0), delta=0)
        with pytest.raises(ValueError):
            intersect_hirzebruch(x, y)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError) as caught:
            HirzebruchClass(a=1, b=0, mults=(), delta=-1)
        assert str(caught.value) == "ruled surface index must be non-negative"

    @pytest.mark.parametrize(
        "call",
        [
            lambda: npi_check(cfg3(), -1),
            lambda: hirzebruch_class_of_polynomial(
                AffinePolynomial.from_pairs([(1, 0)]), -1
            ),
        ],
        ids=["npi_check", "hirzebruch_class_of_polynomial"],
    )
    def test_functions_reject_a_negative_index(self, call):
        with pytest.raises(ValueError) as caught:
            call()
        assert str(caught.value) == "ruled surface index must be non-negative"


class TestLambdaDivisor:
    def test_single_point(self):
        lam = lambda_divisor(build_configuration([[]]), 0)
        assert (lam.a, lam.b, lam.mults) == (1, 1, (1,))

    def test_tono(self):
        cfg = tono_family(3, 0).bundle.cfg
        lam = lambda_divisor(cfg, 0)
        assert (lam.a, lam.b) == (6, 9)
        assert lam.mults == multiplicity_sequence(cfg).values


class TestNpiCheck:
    def test_three_points_holds_at_zero(self):
        result = npi_check(cfg3(), 0)
        assert result.non_positive_at_infinity
        assert result.witness == 6

    def test_tono30_is_borderline(self):
        result = npi_check(tono_family(3, 0).bundle.cfg, 0)
        assert result.non_positive_at_infinity
        assert result.witness == 0

    def test_tono41_fails_at_zero(self):
        result = npi_check(tono_family(4, 1).bundle.cfg, 0)
        assert not result.non_positive_at_infinity
        assert result.witness == -256

    @given(configurations(), st.integers(0, 5))
    def test_witness_agrees_with_the_pairing(self, cfg, delta):
        lam = lambda_divisor(cfg, delta)
        assert npi_check(cfg, delta).witness == intersect_hirzebruch(lam, lam)

    @given(configurations(), st.integers(0, 4))
    def test_monotone_in_the_index(self, cfg, delta):
        if npi_check(cfg, delta).non_positive_at_infinity:
            assert npi_check(cfg, delta + 1).non_positive_at_infinity

    @given(configurations())
    def test_threshold_minimality(self, cfg):
        d0 = delta0(cfg)
        if cfg.size == 1:
            assert d0 == -1
            return
        assert npi_check(cfg, d0).non_positive_at_infinity
        if d0 > 0:
            assert not npi_check(cfg, d0 - 1).non_positive_at_infinity

    @pytest.mark.parametrize(
        "cfg, d0",
        [
            (build_configuration([[]]), -1),
            (tono_family(12, 3).bundle.cfg, 3),
            (from_maximal_contact((4, 6, 13), trailing_free=400), 11),
            (from_maximal_contact((1, 100000)), 24999),
        ],
        ids=["one-point", "tono-12-3", "trailing-400", "100000-points"],
    )
    def test_delta0_is_the_first_index_where_npi_holds(self, cfg, d0):
        """On chains longer than the strategy draws, delta0 is pinned and is
        the first index whose witness is non-negative; one point holds at 0
        and records -1."""
        assert delta0(cfg) == d0
        assert npi_check(cfg, max(d0, 0)).non_positive_at_infinity
        if d0 > 0:
            assert not npi_check(cfg, d0 - 1).non_positive_at_infinity

    @pytest.mark.parametrize(
        "delta, message",
        [
            (-1, "ruled surface index must be non-negative"),
            (True, "delta must be an integer, got True"),
            (1.5, "delta must be an integer, got 1.5"),
        ],
        ids=["negative", "bool", "float"],
    )
    def test_checks_the_index_before_reading_the_record(
        self, monkeypatch, delta, message
    ):
        """A bad index raises before the invariant record is built."""

        def refuse(cfg):
            raise AssertionError("invariant_record called")

        rebind(monkeypatch, invariants.invariant_record, refuse)
        with pytest.raises(ValueError) as caught:
            npi_check(cfg3(), delta)
        assert str(caught.value) == message


class TestNefOnGenerators:
    @given(configurations(), st.integers(0, 3))
    @settings(max_examples=80)
    def test_pairing_pattern(self, cfg, delta):
        pairings = nef_on_generators(cfg, delta)
        by_name = {gp.name: gp.value for gp in pairings}
        assert by_name["fiber"] == 0
        assert by_name["special_section"] == 0
        for i in range(1, cfg.size):
            assert by_name[f"E{i}"] == 0
        assert by_name[f"E{cfg.size}"] == 1

    def test_generator_classes(self):
        classes = dict(dense_generators(cfg3(), 2))
        assert classes["fiber"] == HirzebruchClass(a=1, b=0, mults=(1, 1, 0), delta=2)
        assert classes["special_section"] == HirzebruchClass(
            a=-2, b=1, mults=(1, 0, 0), delta=2
        )
        assert classes["E1"].mults == (-1, 1, 1)
        assert classes["E3"].mults == (0, 0, -1)

    @pytest.mark.parametrize("delta", [0, 3])
    def test_tono_12_3_pairs_to_zero_but_on_the_last_point(self, delta):
        cfg = tono_family(12, 3).bundle.cfg
        pairings = nef_on_generators(cfg, delta)
        assert len(pairings) == 79_228
        assert [gp.name for gp in pairings] == [
            "fiber", "special_section", *(f"E{i}" for i in range(1, 79_227))
        ]
        assert [gp.value for gp in pairings] == [0] * 79_227 + [1]


def dense_generators(cfg, delta):
    """The generators as dense classes, one length-n class each, with each
    E_i listed from ``proximate_points``: the reference that the pairings
    of ``nef_on_generators`` are compared with."""
    n = cfg.size
    fiber = HirzebruchClass(
        a=1, b=0, mults=tuple(int(i <= cfg.tangent_count) for i in range(1, n + 1)),
        delta=delta,
    )
    section = HirzebruchClass(a=-delta, b=1, mults=(1,) + (0,) * (n - 1), delta=delta)
    generators = [("fiber", fiber), ("special_section", section)]
    incoming = proximate_points(cfg)
    for i in range(1, n + 1):
        mults = [0] * n
        mults[i - 1] = -1
        for j in incoming[i]:
            mults[j - 1] = 1
        generators.append(
            (f"E{i}", HirzebruchClass(a=0, b=0, mults=tuple(mults), delta=delta))
        )
    return generators


def assert_matches_dense_generators(cfg, delta):
    lam = lambda_divisor(cfg, delta)
    pairings = nef_on_generators(cfg, delta)
    reference = dense_generators(cfg, delta)
    assert [gp.name for gp in pairings] == [name for name, _ in reference]
    for gp, (_, divisor) in zip(pairings, reference):
        assert gp.value == intersect_hirzebruch(lam, divisor)


class TestNefOnGeneratorsMatchesDenseClasses:
    def test_fuzz_corpus_matches_dense_generators(self, fuzz_corpus):
        for cfg in fuzz_corpus:
            for delta in range(4):
                assert_matches_dense_generators(cfg, delta)

    @given(configurations(max_points=200), st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_long_chains_match_dense_generators(self, cfg, delta):
        assert_matches_dense_generators(cfg, delta)


class TestHirzebruchClassOfPolynomial:
    def test_fiber_class(self):
        f = AffinePolynomial.from_pairs([(1, 0)])
        assert hirzebruch_class_of_polynomial(f, 0) == (1, 0)
        assert hirzebruch_class_of_polynomial(f, 3) == (1, 0)

    def test_special_section_class(self):
        f = AffinePolynomial.from_pairs([(0, 1)])
        assert hirzebruch_class_of_polynomial(f, 2) == (-2, 1)
        cls = HirzebruchClass(a=-2, b=1, mults=(), delta=2)
        assert intersect_hirzebruch(cls, cls) == -2

    def test_cusp_support(self):
        f = AffinePolynomial.from_pairs([(3, 0), (0, 2)])
        assert hirzebruch_class_of_polynomial(f, 1) == (3, 2)

    def test_rejects_common_u_factor(self):
        f = AffinePolynomial.from_pairs([(1, 0), (1, 1)])
        with pytest.raises(ValueError):
            hirzebruch_class_of_polynomial(f, 1)

    def test_rejects_common_v_factor(self):
        f = AffinePolynomial.from_pairs([(0, 1), (1, 1)])
        with pytest.raises(ValueError):
            hirzebruch_class_of_polynomial(f, 1)

    def test_rejects_empty_support(self):
        with pytest.raises(ValueError):
            AffinePolynomial.from_pairs([])

    def test_rejects_a_negative_exponent(self):
        with pytest.raises(ValueError) as caught:
            AffinePolynomial.from_pairs([(1, 0), (-1, 2)])
        assert str(caught.value) == "exponents must be non-negative"

    def test_bidegree_bounds_on_random_supports(self):
        rng = random.Random(2024)
        for _ in range(500):
            size = rng.randint(1, 8)
            support = {(rng.randint(0, 10), rng.randint(0, 10)) for _ in range(size)}
            f = AffinePolynomial.from_pairs(support)
            if len(f.support) > 1 and (
                min(i for i, _ in f.support) > 0 or min(j for _, j in f.support) > 0
            ):
                continue
            for delta in range(5):
                a, b = hirzebruch_class_of_polynomial(f, delta)
                assert a <= f.degree_u
                assert b <= f.degree_v


class TestClassFieldsAreInts:
    """Each class rejects a field that is not an ``int``, a bool included,
    naming the field; each used to truncate with ``int()`` or keep it.  The
    fields of ``HirzebruchClass`` and the first of its ``mults`` are walked
    by ``test_integer_kernels.py::test_int_parameters_reject_non_ints``."""

    def test_hirzebruch_class_checks_every_mult(self):
        with pytest.raises(ValueError) as caught:
            HirzebruchClass(1, 1, (1, 0.5), 2)
        assert str(caught.value) == "mults[1] must be an integer, got 0.5"

    @pytest.mark.parametrize(
        "support, message",
        [
            ({(1.5, 0)}, "exponents[0] must be an integer, got 1.5"),
            ({(0, True)}, "exponents[1] must be an integer, got True"),
            ({(1, 0), (0, 2.0)}, "exponents[1] must be an integer, got 2.0"),
        ],
    )
    def test_affine_polynomial(self, support, message):
        with pytest.raises(ValueError) as caught:
            AffinePolynomial(support)
        assert str(caught.value) == message

    def test_int_fields_are_kept(self):
        assert HirzebruchClass(-2, 1, [1], 2).mults == (1,)
        assert AffinePolynomial({(1, 0)}).support == frozenset({(1, 0)})
