"""Numerical invariants of a valuation read off its configuration.

Everything here is exact: multiplicities and contact values are Python
integers, volumes and Puiseux exponents are ``fractions.Fraction``.  The
record is read from a configuration's multiplicity runs and run-level
proximity structure, so it costs O(runs), not O(points): the per-block run
tables give the Puiseux exponents, and Zariski's recursion turns those into
the contact values.  The inverse construction (``from_maximal_contact``)
expands each contact value into a block of multiplicity runs by the
subtractive Euclidean algorithm, the same recursion read backwards, and
then verifies itself by recomputing the contact values from the blocks and
run tables of the chain it built.

``multiplicity_sequence``, ``curvette_vector`` and ``noether_pairing``
work point by point; they are the references the record is tested against.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .configurations import (
    BlockDecomposition,
    Configuration,
    append_free_chain,
    expand_runs,
)
from .errors import ReconstructionError


@dataclass(frozen=True)
class MultiplicityVector:
    """Values of the maximal ideals along the chain, as runs (value, count);
    v_n = 1."""

    runs: tuple[tuple[int, int], ...]

    @cached_property
    def values(self) -> tuple[int, ...]:
        """The multiplicities listed point by point."""
        return tuple(expand_runs(self.runs))

    def __len__(self) -> int:
        return sum(count for _, count in self.runs)


@dataclass(frozen=True)
class MaximalContactValues:
    """Generators of the value semigroup together with their gcd chain."""

    beta_bar: tuple[int, ...]
    gcd_chain: tuple[int, ...]


@dataclass(frozen=True)
class PuiseuxExponents:
    """Block-wise continued fractions of multiplicity run lengths."""

    beta_prime: tuple[Fraction, ...]
    run_length_tables: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class InvariantRecord:
    """The full derived-invariant bundle of one configuration."""

    multiplicities: MultiplicityVector
    contact: MaximalContactValues
    puiseux: PuiseuxExponents
    volume: Fraction
    normalized_volume: Fraction
    tangent_value: int
    is_m_adic: bool
    decomposition: BlockDecomposition

    @property
    def beta_bar(self) -> tuple[int, ...]:
        return self.contact.beta_bar

    @property
    def threshold_numerator(self) -> int:
        """beta_bar_last - 2 beta_bar_0 t.  Over t^2 it is the term behind
        delta0; t^2 delta minus it is the nef candidate's self-intersection
        on the ruled model of index delta."""
        return self.beta_bar[-1] - 2 * self.beta_bar[0] * self.tangent_value


def multiplicity_sequence(cfg: Configuration) -> MultiplicityVector:
    """Backward recursion v_n = 1, v_i = sum of v_j over points proximate to p_i,
    point by point."""
    n = cfg.size
    incoming = cfg.proximate_points()
    v = [0] * (n + 1)
    v[n] = 1
    for i in range(n - 1, 0, -1):
        v[i] = sum(v[j] for j in incoming[i])
    return MultiplicityVector(
        runs=tuple((value, len(list(run))) for value, run in itertools.groupby(v[1:]))
    )


def curvette_vector(cfg: Configuration, k: int) -> tuple[int, ...]:
    """Multiplicities of a smooth germ through p_1..p_k, transversal at stage k."""
    n = cfg.size
    if not 1 <= k <= n:
        raise ValueError(f"curvette index must lie in 1..{n}, got {k}")
    incoming = cfg.proximate_points(k)
    w = [0] * (k + 1)
    w[k] = 1
    for i in range(k - 1, 0, -1):
        w[i] = sum(w[j] for j in incoming[i])
    return tuple(w[1:]) + (0,) * (n - k)


def noether_pairing(cfg: Configuration, m: Sequence[int], m2: Sequence[int]) -> int:
    """Intersection pairing of two multiplicity vectors over the chain."""
    if len(m) != cfg.size or len(m2) != cfg.size:
        raise ValueError(
            f"vectors must have length {cfg.size}, got {len(m)} and {len(m2)}"
        )
    return sum(a * b for a, b in zip(m, m2))


def _continued_fraction(digits: Sequence[int]) -> Fraction:
    value = Fraction(digits[-1])
    for d in reversed(digits[:-1]):
        value = d + 1 / value
    return value


def invariant_record(cfg: Configuration) -> InvariantRecord:
    """Every derived invariant, read from the multiplicity runs and the
    run-level proximity structure; the single-invariant functions below
    read this record.

    Puiseux exponents are the per-block continued fractions of
    multiplicity run lengths.  Blocks are read as closed ranges, so the
    shared endpoint of consecutive blocks contributes to the first run of
    the later block.  Contact values follow from them by Zariski's
    recursion; the last one pairs the chain with itself, the sum of
    count * value^2.
    """
    structure = cfg.structure
    decomposition = structure.decomposition
    runs = tuple(
        tuple(count for _, count in structure.spans(lo, hi))
        for lo, hi in decomposition.blocks
    )
    beta_prime = (Fraction(1), *map(_continued_fraction, runs))
    # Zariski's recursion from e_{-1} = e_0 = beta_0; the y step of
    # from_maximal_contact is its inverse.
    beta = [cfg.runs[0][0]]
    gcd_prev = gcd_here = beta[0]
    for exponent in beta_prime[1 : decomposition.genus_count + 1]:
        y = int(gcd_here * exponent)
        beta.append(y + gcd_prev // gcd_here * beta[-1] - gcd_here)
        gcd_prev, gcd_here = gcd_here, math.gcd(gcd_here, y)
    beta.append(sum(count * value * value for value, count in cfg.runs))
    is_m_adic = cfg.size == 1
    # A single point has no tangent line; its tangent value is 1.
    tangent = 1 if is_m_adic else sum(
        cfg.runs[s][0] * count for s, count in structure.spans(1, cfg.tangent_count)
    )
    return InvariantRecord(
        multiplicities=MultiplicityVector(runs=cfg.runs),
        contact=MaximalContactValues(
            beta_bar=tuple(beta), gcd_chain=tuple(itertools.accumulate(beta, math.gcd))
        ),
        puiseux=PuiseuxExponents(beta_prime=beta_prime, run_length_tables=runs),
        volume=Fraction(1, beta[-1]),
        normalized_volume=Fraction(beta[0] ** 2, beta[-1]),
        tangent_value=tangent,
        is_m_adic=is_m_adic,
        decomposition=decomposition,
    )


def maximal_contact_values(cfg: Configuration) -> MaximalContactValues:
    """Contact values by Zariski's recursion from the Puiseux run tables; the
    last one pairs the chain with itself."""
    return invariant_record(cfg).contact


def puiseux_exponents(cfg: Configuration) -> PuiseuxExponents:
    """Per block, the continued fraction of the multiplicity run lengths."""
    return invariant_record(cfg).puiseux


def volume(cfg: Configuration) -> Fraction:
    """Reciprocal of the last maximal contact value."""
    return invariant_record(cfg).volume


def normalized_volume(cfg: Configuration) -> Fraction:
    return invariant_record(cfg).normalized_volume


def tangent_value(cfg: Configuration) -> int:
    """Value of the tangent line: sum of multiplicities over flagged points.

    A single point has no tangent line; its value is 1 by convention.
    """
    return invariant_record(cfg).tangent_value


def semigroup_values(cfg: Configuration, limit: int) -> list[int]:
    """Values up to ``limit`` of the semigroup generated by the contact values."""
    if limit < 0:
        raise ValueError("limit must be non-negative")
    generators = invariant_record(cfg).beta_bar
    reachable = [False] * (limit + 1)
    reachable[0] = True
    for g in generators:
        if g == 0 or g > limit:
            continue
        for x in range(g, limit + 1):
            if reachable[x - g]:
                reachable[x] = True
    return [x for x, ok in enumerate(reachable) if ok]


def _euclid_block_values(small: int, large: int) -> list[tuple[int, int]]:
    """Minima of the subtractive gcd process on (small, large), as runs.

    These are exactly the multiplicities contributed by one block, as
    (value, count); the counts are the continued-fraction digits of
    large/small.
    """
    out: list[tuple[int, int]] = []
    s, big = small, large
    while True:
        q, r = divmod(big, s)
        out.append((s, q))
        if r == 0:
            return out
        s, big = r, s


def from_maximal_contact(
    beta_bar: Sequence[int],
    trailing_free: int = 0,
    name: str | None = None,
) -> Configuration:
    """Build the configuration whose contact values start with ``beta_bar``.

    Block j expands the pair (e_{j-1}, y_j) by the subtractive Euclidean
    algorithm, where y_j = beta_j - n_{j-1} beta_{j-1} + e_{j-1} and the
    shared block endpoint is emitted only once.  The result is verified by
    recomputing its contact values from the blocks and run tables of its
    proximity structure;
    ``trailing_free`` extra free points are appended afterwards (each adds
    1 to the final contact value).
    """
    b = [int(x) for x in beta_bar]
    if len(b) < 2:
        raise ReconstructionError(
            "need at least two contact values (the one-point chain has (1, 1))"
        )
    if b[0] < 1:
        raise ReconstructionError("contact values must be positive")
    if b[1] < b[0]:
        raise ReconstructionError("the second contact value cannot be smaller "
                                  "than the first")
    if trailing_free < 0:
        raise ReconstructionError("trailing_free must be non-negative")

    runs = _euclid_block_values(b[0], b[1])
    gcd_prev = b[0]
    gcd_here = math.gcd(b[0], b[1])
    for j in range(2, len(b)):
        if gcd_here >= gcd_prev:
            raise ReconstructionError(
                f"gcd chain must strictly decrease before entry {j} "
                f"(stuck at {gcd_here})"
            )
        multiplier = gcd_prev // gcd_here
        # Inverse of Zariski's recursion in invariant_record.
        y = b[j] - multiplier * b[j - 1] + gcd_here
        if y < gcd_here:
            raise ReconstructionError(
                f"contact value {b[j]} at position {j} is too small to open "
                "a new block"
            )
        (_, first_count), *rest = _euclid_block_values(gcd_here, y)
        # The block opens on the previous block's last point, a run of e_{j-1}.
        runs[-1] = (gcd_here, runs[-1][1] + first_count - 1)
        runs += rest
        gcd_prev, gcd_here = gcd_here, math.gcd(gcd_here, y)

    if runs[-1][0] != 1:
        raise ReconstructionError(
            "sequence does not terminate: the final multiplicity would be "
            f"{runs[-1][0]}, not 1"
        )

    size = sum(count for _, count in runs)
    cfg = Configuration(runs=tuple(runs), tangent_count=min(2, size), name=name)
    recomputed = invariant_record(cfg).beta_bar
    if len(b) > len(recomputed) or list(recomputed[: len(b)]) != b:
        raise ReconstructionError(
            f"no configuration reproduces {tuple(b)}; the closest candidate "
            f"has contact values {recomputed}"
        )
    if trailing_free:
        cfg = append_free_chain(cfg, trailing_free)
    return cfg


__all__ = [
    "InvariantRecord",
    "MaximalContactValues",
    "MultiplicityVector",
    "PuiseuxExponents",
    "curvette_vector",
    "from_maximal_contact",
    "invariant_record",
    "maximal_contact_values",
    "multiplicity_sequence",
    "noether_pairing",
    "normalized_volume",
    "puiseux_exponents",
    "semigroup_values",
    "tangent_value",
    "volume",
]
