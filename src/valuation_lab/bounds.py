"""Degree, Seshadri-type, and negativity bounds attached to valuations.

All bounds are exact integers or ``Fraction`` values.  The unicuspidal
example family (``tono_family``) doubles as a regression suite: every
closed-form invariant it claims is re-verified against the constructed
configuration before the bundle is returned.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from typing import NamedTuple

from .configurations import (
    Configuration,
    extend_with_satellite_tail,
    max_tangent_count,
    require_int,
    require_ints,
)
from .errors import VerificationError
from .invariants import (
    InvariantRecord,
    from_maximal_contact,
    invariant_record,
)


def ceil_div(numerator: int, denominator: int) -> int:
    """ceil(numerator / denominator) for denominator > 0, by floor division."""
    return -(-numerator // denominator)


def ceil_plus(numerator: int | Fraction, denominator: int = 1) -> int:
    """Ceiling of numerator / denominator clamped to zero: the ceiling when
    the quotient is >= 0, else 0."""
    return max(ceil_div(numerator, denominator), 0)


class ValuationBundle(NamedTuple):
    """A configuration with its derived invariants and threshold index."""

    cfg: Configuration
    record: InvariantRecord
    delta0: int

    @property
    def mu_hat_bound(self) -> int:
        """beta_bar_0 + (1 + delta0) t: the upper bound on mu-hat and the
        denominator of the degree bound."""
        return self.record.beta_bar[0] + (1 + self.delta0) * self.record.tangent_value

    @property
    def ratio_bound(self) -> int:
        """-(1 + delta0): the self-intersection ratio bound."""
        return -(1 + self.delta0)


class MultiValuation(NamedTuple):
    """Several valuations blown up together, plus their aligned-point count."""

    bundles: tuple[ValuationBundle, ...]
    aligned_mu: int


class BoundReport(NamedTuple):
    """Every bound for one valuation; the combinatorial one is None for a
    single point, which has no tangent line."""

    degree_bound: Fraction
    mu_hat_upper_bound: int
    ratio_bound: int
    combinatorial_lambda_bound: int | None
    trivial_lambda_bound: int


class TailComparison(NamedTuple):
    """Exact effect of a satellite tail on the threshold index."""

    delta0_before: int
    delta0_after: int
    difference: Fraction

    @property
    def delta0_non_increasing(self) -> bool:
        return self.delta0_after <= self.delta0_before

    @property
    def difference_in_unit_interval(self) -> bool:
        return 0 < self.difference < 1


class TonoValuation(NamedTuple):
    """One member of the unicuspidal example family, fully verified."""

    a: int
    e: int
    bundle: ValuationBundle
    curve_degree: int
    curve_value: int
    mu_hat: Fraction
    ratio: Fraction
    trailing_free: int

    @property
    def mu_hat_bound(self) -> int:
        return self.bundle.mu_hat_bound


def _threshold_term(record: InvariantRecord) -> Fraction:
    """The pre-ceiling term of delta0, threshold_numerator / t^2."""
    return Fraction(record.threshold_numerator, record.tangent_value**2)


def _threshold_index(record: InvariantRecord) -> int:
    """delta0 of an already-computed record: its threshold term's ceiling,
    clamped to zero."""
    if record.is_m_adic:
        return -1
    return ceil_plus(record.threshold_numerator, record.tangent_value**2)


def valuation_bundle(cfg: Configuration) -> ValuationBundle:
    record = invariant_record(cfg)
    return ValuationBundle(cfg=cfg, record=record, delta0=_threshold_index(record))


def delta0(cfg: Configuration) -> int:
    """Least ruled-surface index at which the valuation is non-positive at
    infinity; -1 by convention for a single point."""
    return _threshold_index(invariant_record(cfg))


def degree_lower_bound(cfg: Configuration, m: Sequence[int]) -> Fraction:
    """Lower bound on the degree of a plane curve with multiplicities >= m:
    sum v_i m_i over the mu-hat bound, with v walked run by run."""
    m = require_ints(m, "m", ValueError)
    if len(m) != cfg.size:
        raise ValueError(f"expected {cfg.size} multiplicities, got {len(m)}")
    if any(x < 0 for x in m):
        raise ValueError("prescribed multiplicities must be non-negative")
    pairing, start = 0, 0
    for value, count in cfg.runs:
        pairing += value * sum(m[start:start + count])
        start += count
    return Fraction(pairing, valuation_bundle(cfg).mu_hat_bound)


def _certificate(
    beta_bar_last: int, curve_value: int, curve_degree: int
) -> Fraction | None:
    """curve_value/curve_degree if it exceeds sqrt(beta_bar_last) strictly."""
    if curve_value * curve_value > beta_bar_last * curve_degree * curve_degree:
        return Fraction(curve_value, curve_degree)
    return None


def supraminimal_certificate(
    cfg: Configuration, curve_value: int, curve_degree: int
) -> Fraction | None:
    """Certify curve_value/curve_degree as the exact Seshadri-type constant.

    The certificate fires when the curve beats the square root of the
    inverse volume strictly; the caller asserts the curve is integral and
    has the stated value and degree.
    """
    require_int(curve_value, "curve_value", ValueError)
    require_int(curve_degree, "curve_degree", ValueError)
    if curve_value < 1 or curve_degree < 1:
        raise ValueError("curve value and degree must be positive")
    return _certificate(invariant_record(cfg).beta_bar[-1], curve_value, curve_degree)


def multi_valuation(
    bundles: Sequence[ValuationBundle], aligned_mu: int | None = None
) -> MultiValuation:
    """Valuations at mutually general centers and their aligned-point count.
    Within one valuation only the tangent-flagged points can be aligned, and
    any two distinct points of the plane lie on a line, so the count is at
    least the largest tangent count, and 2 once two points exist anywhere;
    it defaults to the larger of these two floors."""
    if not bundles:
        raise ValueError("need at least one valuation")
    if aligned_mu is not None:
        require_int(aligned_mu, "aligned_mu", ValueError)
    tangent_floor = max(b.cfg.tangent_count for b in bundles)
    line_floor = 2 if sum(b.cfg.size for b in bundles) >= 2 else 1
    mu = max(tangent_floor, line_floor) if aligned_mu is None else aligned_mu
    if mu < tangent_floor:
        raise ValueError(
            "aligned_mu cannot be smaller than a tangent segment of one "
            "of the valuations"
        )
    if mu < line_floor:
        raise ValueError("aligned_mu must be at least 2 once two points exist")
    return MultiValuation(bundles=tuple(bundles), aligned_mu=mu)


def multi_ratio_bound(mv: MultiValuation) -> int:
    """Ratio bound on the surface dominating all the valuations at once."""
    n = len(mv.bundles)
    return -sum(b.delta0 for b in mv.bundles) - 2 * n + 1


def lambda_lower_bound(mv: MultiValuation) -> int:
    """Lower bound for the asymptotic negativity of the joint blowup."""
    return min(1 - mv.aligned_mu, multi_ratio_bound(mv))


def combinatorial_lambda_bound(cfg: Configuration) -> int:
    """Negativity bound from the first, second, and last contact values only.

    When p_3 is a satellite the tangent value is pinned to the second
    contact value and the threshold index can be rewritten accordingly;
    otherwise the tangent value is squeezed between twice the first and
    the second contact value, which bounds both terms of the minimum.
    """
    if cfg.size < 2:
        raise ValueError("the bound needs a tangent line, hence two points")
    return _combinatorial_bound(cfg, invariant_record(cfg).beta_bar)


def _combinatorial_bound(cfg: Configuration, contact: Sequence[int]) -> int:
    b0, b1, last = contact[0], contact[1], contact[-1]
    # p_3, the earliest possible satellite, is one if the segment stops at p_2.
    if max_tangent_count(cfg) == 2 < cfg.size:
        # (b0/b1)^2 * last/b0^2 - 2 b0/b1 = (last - 2 b0 b1) / b1^2
        return -1 - ceil_plus(last - 2 * b0 * b1, b1 * b1)
    # last/(4 b0^2) - 2 b0/b1 = (last b1 - 8 b0^3) / (4 b0^2 b1)
    return min(
        1 - ceil_div(b1, b0),
        -1 - ceil_plus(last * b1 - 8 * b0**3, 4 * b0 * b0 * b1),
    )


def satellite_tail_comparison(
    cfg: Configuration, choices: Sequence[int]
) -> TailComparison:
    """Extend by a satellite tail and recompute the threshold data exactly.

    Returns both threshold indices and the exact difference of the
    pre-ceiling terms; the expected behavior (difference in (0, 1), index
    never increasing) is exposed as properties so violations can be
    reported rather than raised.
    """
    extended = extend_with_satellite_tail(cfg, choices)
    before, after = invariant_record(cfg), invariant_record(extended)
    return TailComparison(
        delta0_before=_threshold_index(before),
        delta0_after=_threshold_index(after),
        difference=_threshold_term(before) - _threshold_term(after),
    )


def tono_family(a: int, e: int) -> TonoValuation:
    """Valuation of the unicuspidal curve family with parameters (a, e).

    The cusp resolution is rebuilt from the contact values (a^2 - a, a^2,
    a^3 + 2a + 1) and extended by (e+1)a^4 - 2a^3 - 2a^2 - a free points
    on the curve.  One comparison checks (contact values, t, delta0, mu-hat
    bound) against their closed forms, whose last is (e+2)a^2 - a, and the
    curve of degree a^2 + 1 must certify mu-hat, or VerificationError.
    """
    require_int(a, "a", ValueError)
    require_int(e, "e", ValueError)
    if a < 3:
        raise ValueError("the family needs a >= 3")
    if e < 0:
        raise ValueError("the family needs e >= 0")

    expected_contact = (a * a - a, a * a, a**3 + 2 * a + 1, (e + 2) * a**4 - 2 * a**3)
    trailing = (e + 1) * a**4 - 2 * a**3 - 2 * a * a - a
    cfg = from_maximal_contact(expected_contact[:3], trailing_free=trailing)
    bundle = valuation_bundle(cfg)

    expected = (expected_contact, a * a, e, (e + 2) * a * a - a)
    record = bundle.record
    actual = (record.beta_bar, record.tangent_value, bundle.delta0, bundle.mu_hat_bound)
    if actual != expected:
        raise VerificationError(
            f"(contact values, tangent value, threshold index, upper bound) "
            f"{actual} differ from the closed forms {expected}"
        )
    curve_degree = a * a + 1
    curve_value = expected_contact[-1]
    certificate = _certificate(record.beta_bar[-1], curve_value, curve_degree)
    if certificate is None:
        raise VerificationError("the family curve must certify the constant")
    ratio = Fraction(curve_degree**2 - curve_value, curve_degree**2)
    return TonoValuation(
        a=a,
        e=e,
        bundle=bundle,
        curve_degree=curve_degree,
        curve_value=curve_value,
        mu_hat=certificate,
        ratio=ratio,
        trailing_free=trailing,
    )


def bound_report(bundle: ValuationBundle) -> BoundReport:
    """Every bound of one valuation, read off its bundle.

    The degree bound is evaluated at the valuation's own multiplicity
    sequence (a curve through every center with those multiplicities):
    sum v_i^2 over the mu-hat bound, that is beta_bar_last over it.
    """
    cfg, beta_bar = bundle.cfg, bundle.record.beta_bar
    return BoundReport(
        degree_bound=Fraction(beta_bar[-1], bundle.mu_hat_bound),
        mu_hat_upper_bound=bundle.mu_hat_bound,
        ratio_bound=bundle.ratio_bound,
        combinatorial_lambda_bound=(
            _combinatorial_bound(cfg, beta_bar) if cfg.size >= 2 else None
        ),
        trivial_lambda_bound=1 - cfg.size,
    )


__all__ = [
    "BoundReport",
    "MultiValuation",
    "TailComparison",
    "TonoValuation",
    "ValuationBundle",
    "bound_report",
    "combinatorial_lambda_bound",
    "degree_lower_bound",
    "delta0",
    "lambda_lower_bound",
    "multi_ratio_bound",
    "multi_valuation",
    "satellite_tail_comparison",
    "supraminimal_certificate",
    "tono_family",
    "valuation_bundle",
]
