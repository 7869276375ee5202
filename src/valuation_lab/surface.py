"""Exact intersection theory on blown-up ruled surfaces.

Classes are written additively against total transforms with the sign
convention ``class = a*F + b*M - sum(m_i * E_i)``.  The pairing table on
the ruled model of index ``delta`` is F.M = 1, F.F = 0, M.M = delta, with
the exceptional classes orthonormal of square -1; ``intersect_hirzebruch``
is the one place that pairing is written.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

from .configurations import Configuration, proximity_residual
from .configurations import require_int, require_ints
from .invariants import invariant_record


def _require_index(delta: int) -> None:
    """The ruled-surface index rule: ``delta`` is an ``int``, at least 0."""
    require_int(delta, "delta", ValueError)
    if delta < 0:
        raise ValueError("ruled surface index must be non-negative")


@dataclass(frozen=True)
class HirzebruchClass:
    """Divisor class a*F + b*M - sum(m_i * E_i) on a blown-up ruled surface."""

    a: int
    b: int
    mults: tuple[int, ...]
    delta: int

    def __post_init__(self) -> None:
        for name in ("a", "b"):
            require_int(getattr(self, name), name, ValueError)
        _require_index(self.delta)
        object.__setattr__(self, "mults", require_ints(self.mults, "mults", ValueError))


@dataclass(frozen=True)
class AffinePolynomial:
    """Support of an affine curve equation; coefficients are irrelevant here."""

    support: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        pairs = frozenset(
            require_ints((i, j), "exponents", ValueError) for i, j in self.support
        )
        if not pairs:
            raise ValueError("polynomial support must be non-empty")
        if any(i < 0 or j < 0 for i, j in pairs):
            raise ValueError("exponents must be non-negative")
        object.__setattr__(self, "support", pairs)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "AffinePolynomial":
        return cls(support=frozenset(pairs))

    @property
    def degree_u(self) -> int:
        return max(i for i, _ in self.support)

    @property
    def degree_v(self) -> int:
        return max(j for _, j in self.support)


class NpiResult(NamedTuple):
    """Outcome of the non-positivity-at-infinity test with its witness."""

    non_positive_at_infinity: bool
    witness: int


class GeneratorPairing(NamedTuple):
    """A claimed generator of the curve cone, by name, and its pairing with
    the nef candidate."""

    name: str
    value: int


def intersect_hirzebruch(x: HirzebruchClass, y: HirzebruchClass) -> int:
    if x.delta != y.delta:
        raise ValueError(f"ruled surface index mismatch: {x.delta} vs {y.delta}")
    if len(x.mults) != len(y.mults):
        raise ValueError(
            f"ambient size mismatch: {len(x.mults)} vs {len(y.mults)}"
        )
    return (
        x.a * y.b + y.a * x.b + x.delta * x.b * y.b
        - sum(map(operator.mul, x.mults, y.mults))
    )


def lambda_divisor(cfg: Configuration, delta: int) -> HirzebruchClass:
    """The nef candidate attached to the valuation on the ruled model.

    Its fiber coefficient is the first contact value, its section
    coefficient is the tangent value, and it subtracts the multiplicity
    sequence over the exceptional classes.
    """
    record = invariant_record(cfg)
    return HirzebruchClass(
        a=record.beta_bar[0],
        b=record.tangent_value,
        mults=record.multiplicities.values,
        delta=delta,
    )


def npi_check(cfg: Configuration, delta: int) -> NpiResult:
    """Non-positivity at infinity on the ruled model of the given index,
    which is checked before the invariant record is read.  The witness is
    the self-intersection of the nef candidate, from the closed formula
    2*b0*t + t^2*delta - b_last rather than the pairing (the two paths are
    compared in tests).
    """
    _require_index(delta)
    record = invariant_record(cfg)
    t = record.tangent_value
    witness = t * t * delta - record.threshold_numerator
    return NpiResult(non_positive_at_infinity=(witness >= 0), witness=witness)


def nef_on_generators(cfg: Configuration, delta: int) -> list[GeneratorPairing]:
    """Pair the configuration's nef candidate with every claimed generator of
    the curve cone.

    Generators: the strict transform of the fiber through the center (it
    passes through exactly the tangent-flagged points), the strict
    transform of the special section (through p_1 only), and the strict
    transforms of the exceptional divisors (E_i minus the E_j of the points
    proximate to p_i).  The fiber is F - sum of the E_i at the tangent
    points and the section S = M - delta*F is -delta*F + M - E_1; both are
    paired with the candidate through ``intersect_hirzebruch``.  E_i has no
    fiber or section part, so the candidate pairs with it to entry i of the
    proximity residual of its multiplicities, which is read off the runs.
    """
    lam = lambda_divisor(cfg, delta)
    n, k = cfg.size, cfg.tangent_count
    fiber = HirzebruchClass(a=1, b=0, mults=(1,) * k + (0,) * (n - k), delta=delta)
    section = HirzebruchClass(a=-delta, b=1, mults=(1,) + (0,) * (n - 1), delta=delta)
    residual = proximity_residual(cfg, cfg.runs)
    return [
        GeneratorPairing("fiber", intersect_hirzebruch(lam, fiber)),
        GeneratorPairing("special_section", intersect_hirzebruch(lam, section)),
        *(GeneratorPairing(f"E{i}", residual.get(i, 0)) for i in range(1, n + 1)),
    ]


def hirzebruch_class_of_polynomial(
    f: AffinePolynomial, delta: int
) -> tuple[int, int]:
    """Bidegree (a, b) of the closure of {f = 0} on the ruled surface.

    b is the v-degree and a = max(i - delta*j) over the support: the unique
    exponents for which the bihomogenized equation is divisible by neither
    coordinate at infinity.  Multi-monomial supports sharing a common u- or
    v-factor are rejected, since the closure would then contain the fiber
    through the center or the special section as a component.
    """
    _require_index(delta)
    support = f.support
    if len(support) > 1:
        if min(i for i, _ in support) > 0:
            raise ValueError("every monomial is divisible by u; divide it out first")
        if min(j for _, j in support) > 0:
            raise ValueError("every monomial is divisible by v; divide it out first")
    return max(i - delta * j for i, j in support), f.degree_v


__all__ = [
    "AffinePolynomial",
    "HirzebruchClass",
    "NpiResult",
    "hirzebruch_class_of_polynomial",
    "intersect_hirzebruch",
    "lambda_divisor",
    "nef_on_generators",
    "npi_check",
]
