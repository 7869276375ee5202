"""Numerical invariants of a valuation read off its configuration.

Everything here is exact and in integers.  A configuration is its
multiplicity runs, and the record is read from those runs and their
run-level proximity structure, so it costs O(runs), not O(points), and
builds no ``Fraction``.  The per-block run tables, read in one walk over
the run ends, are each folded into the coprime p/q of their continued
fraction, the Puiseux exponent that the record keeps and the reports
print; Zariski's recursion turns those into the contact values, the last
one over the last block, and each q into a step e_j = e_{j-1}/q of their
gcd chain.  The record holds all of these side by side, and
``maximal_contact_values`` and ``puiseux_exponents`` return it whole.
The normalized volume is a ``fractions.Fraction`` built when it is read.
The inverse (``from_maximal_contact``) expands each contact value into a
block of multiplicity runs by the subtractive Euclidean algorithm, the same
recursion read backwards; its docstring proves that its input checks make
the record of the chain it builds give the contact values back, and the
last one the chain's sum of v^2.

``multiplicity_sequence``, ``curvette_vector`` and ``noether_pairing``
work point by point; the first two push the backward recursion over the
chain's ``older`` array (``configurations.push_values``).  They are the
references the record is tested against.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from fractions import Fraction
from typing import NamedTuple

from .configurations import Configuration, expand_runs, push_values, value_runs
from .configurations import require_int, require_ints
from .errors import ReconstructionError


class MultiplicityVector(NamedTuple):
    """Values of the maximal ideals along the chain, as runs (value, count);
    v_n = 1."""

    runs: tuple[tuple[int, int], ...]

    @property
    def values(self) -> tuple[int, ...]:
        """The multiplicities listed point by point, on each read."""
        return tuple(expand_runs(self.runs))


class InvariantRecord(NamedTuple):
    """The full derived-invariant bundle of one configuration: the contact
    values, generators of the value semigroup, with their gcd chain; the
    block-wise multiplicity run lengths; and the Puiseux exponents as coprime
    (p, q): ``ratios[j]`` is beta'_j, 1 for j = 0, else the continued
    fraction of block j's run lengths."""

    multiplicities: MultiplicityVector
    beta_bar: tuple[int, ...]
    gcd_chain: tuple[int, ...]
    run_length_tables: tuple[tuple[int, ...], ...]
    ratios: tuple[tuple[int, int], ...]
    tangent_value: int
    is_m_adic: bool

    @property
    def normalized_volume(self) -> Fraction:
        """beta_bar_0^2 / beta_bar_last, on each read."""
        return Fraction(self.beta_bar[0] ** 2, self.beta_bar[-1])

    @property
    def threshold_numerator(self) -> int:
        """beta_bar_last - 2 beta_bar_0 t.  Over t^2 it is the term behind
        delta0; t^2 delta minus it is the nef candidate's self-intersection
        on the ruled model of index delta."""
        return self.beta_bar[-1] - 2 * self.beta_bar[0] * self.tangent_value


def multiplicity_sequence(cfg: Configuration) -> MultiplicityVector:
    """Backward recursion v_n = 1, v_i = sum of v_j over points proximate to p_i,
    point by point, pushed over the ``older`` array."""
    return MultiplicityVector(runs=value_runs(push_values(cfg.older, cfg.size)[1:]))


def curvette_vector(cfg: Configuration, k: int) -> tuple[int, ...]:
    """Multiplicities of a smooth germ through p_1..p_k, transversal at stage k."""
    require_int(k, "k", ValueError)
    n = cfg.size
    if not 1 <= k <= n:
        raise ValueError(f"curvette index must lie in 1..{n}, got {k}")
    # Entries past k stay 0, so the points after p_k add nothing.
    return tuple(push_values(cfg.older, k)[1:])


def noether_pairing(cfg: Configuration, m: Sequence[int], m2: Sequence[int]) -> int:
    """Intersection pairing of two multiplicity vectors over the chain."""
    m, m2 = require_ints(m, "m", ValueError), require_ints(m2, "m2", ValueError)
    if len(m) != cfg.size or len(m2) != cfg.size:
        raise ValueError(
            f"vectors must have length {cfg.size}, got {len(m)} and {len(m2)}"
        )
    return sum(map(operator.mul, m, m2))


def invariant_record(cfg: Configuration) -> InvariantRecord:
    """Every derived invariant, read from the multiplicity runs and the
    run-level proximity structure; the single-invariant functions below
    read this record.

    Puiseux exponents are the per-block continued fractions of
    multiplicity run lengths.  Blocks are read as closed ranges, so the
    shared endpoint of consecutive blocks contributes to the first run of
    the later block.  Contact values follow from them by Zariski's
    recursion, continued over the last block for the last one, which the
    identity suite holds to the sum of count * value^2.  Everything is
    integer arithmetic on the coprime p/q each exponent is folded to: as
    y_j = e_{j-1} p/q is an integer, q divides e_{j-1} and the gcd chain's
    e_j = gcd(e_{j-1}, y_j) is e_{j-1}/q.
    """
    structure = cfg.structure
    # Zariski's recursion from e_{-1} = e_0 = beta_0, in integers on each
    # block's p/q; the y step of from_maximal_contact is its inverse.
    # Continued over the last block, it gives beta_bar_{g+1}.
    beta = [cfg.runs[0][0]]
    gcd_prev = gcd_here = beta[0]
    gcd_chain = [gcd_here]
    # Run lengths inside each closed block, in one walk over the run ends;
    # a block ending inside run s leaves the rest of run s to the next.
    ends, tables, ratios, s, start = structure.ends, [], [(1, 1)], 0, 1
    for hi in structure.boundaries[1:]:
        table = []
        while ends[s] < hi:
            table.append(ends[s] - start + 1)
            start, s = ends[s] + 1, s + 1
        table.append(hi - start + 1)
        tables.append(tuple(table))
        start = hi
        # The block's continued fraction, folded from its last digit: d + q/p.
        p, q = 1, 0
        for d in reversed(table):
            p, q = d * p + q, p
        ratios.append((p, q))
        gcd_chain.append(gcd_here // q)
        beta.append(gcd_chain[-1] * p + gcd_prev // gcd_here * beta[-1] - gcd_here)
        gcd_prev, gcd_here = gcd_here, gcd_chain[-1]
    # The values of the tangent points p_1..p_k; a single point has no
    # tangent line, and its tangent value is v_1 = 1.
    tangent, left = 0, cfg.tangent_count
    for value, count in cfg.runs:
        if count >= left:
            tangent += value * left
            break
        tangent, left = tangent + value * count, left - count
    return InvariantRecord(
        multiplicities=MultiplicityVector(runs=cfg.runs),
        beta_bar=tuple(beta),
        gcd_chain=tuple(gcd_chain),
        run_length_tables=tuple(tables),
        ratios=tuple(ratios),
        tangent_value=tangent,
        is_m_adic=cfg.size == 1,
    )


def maximal_contact_values(cfg: Configuration) -> InvariantRecord:
    """The record, whose contact values come by Zariski's recursion from the
    Puiseux run tables, the last one over the last block."""
    return invariant_record(cfg)


def puiseux_exponents(cfg: Configuration) -> InvariantRecord:
    """The record, whose exponents are per block the continued fraction of
    the multiplicity run lengths."""
    return invariant_record(cfg)


def normalized_volume(cfg: Configuration) -> Fraction:
    return invariant_record(cfg).normalized_volume


def _euclid_block_values(small: int, large: int) -> list[tuple[int, int]]:
    """Minima of the subtractive gcd process on (small, large), as runs
    (value, count): one block's multiplicities, whose counts are the
    continued-fraction digits of large/small."""
    out: list[tuple[int, int]] = []
    s, big = small, large
    while True:
        q, r = divmod(big, s)
        out.append((s, q))
        if r == 0:
            return out
        s, big = r, s


def from_maximal_contact(
    beta_bar: Sequence[int], trailing_free: int = 0
) -> Configuration:
    """Build the configuration whose contact values start with ``beta_bar``.

    For b = (b_0, ..., b_m), block j is the subtractive Euclidean algorithm
    on (e_{j-1}, y_j): e_0 = b_0, y_1 = b_1, e_j = gcd(e_{j-1}, y_j) and
    y_j = b_j - (e_{j-2}/e_{j-1}) b_{j-1} + e_{j-1}.  Its remainders
    r_{-1} = y_j, r_0 = e_{j-1}, r_{i-1} = q_i r_i + r_{i+1}, ..., r_k = e_j
    give the runs (r_i, q_i), and its last point P_j, the q_k-th of the e_j
    run, opens block j+1.  ``trailing_free`` free points are then appended.

    The input checks make ``invariant_record`` give b back as a prefix:
    (1) q_k >= 2 when the gcd falls (k >= 1); only the last block may keep
    it, and then e_{m-1} = 1 by the final multiplicity check.
    (2) A run end r_{i-1} is matched exactly by the q_i points of the next
    run and one more if r_{i+1} > 0, so each run end opens a stretch right
    after the previous one ends, and a block's stretches merge at P_j.
    (3) Block j+1's first stretch starts at P_j + q_0 + 1 >= P_j + 2, so
    ``run_structure`` raises nothing and blocks stay apart: its boundaries
    are (1, P_1, ..., P_g, n), g = m, or m - 1 if the last block keeps its gcd.
    (4) Block j's run table on [P_{j-1}, P_j] is (q_0, ..., q_k), so its
    continued fraction is y_j/e_{j-1} and the forward step gives b_1..b_g.
    (5) By r_{i-1} r_i - r_i r_{i+1} = q_i r_i^2, block j's sum of v^2 is
    e_{j-1} y_j; with e_{j-1} times the y_j step, the chain's sum of v^2
    (P_j has value e_j) telescopes to e_{m-1} b_m.  Zariski's step over the
    last block gives the same: that block is block m, with e_{m-1} = 1, if
    g = m - 1, else P_m alone, of exponent 1, whose step is e_{m-1} b_m.  A
    free point appended adds 1 to both, so the sum-of-squares row passes.
    """
    b = require_ints(beta_bar, "beta_bar", ReconstructionError)
    require_int(trailing_free, "trailing_free", ReconstructionError)
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
    gcd_prev, gcd_here = b[0], math.gcd(b[0], b[1])
    for j in range(2, len(b)):
        if gcd_here >= gcd_prev:
            raise ReconstructionError(
                f"gcd chain must strictly decrease before entry {j} "
                f"(stuck at {gcd_here})"
            )
        # Inverse of Zariski's recursion in invariant_record.
        y = b[j] - gcd_prev // gcd_here * b[j - 1] + gcd_here
        if y < gcd_here:
            raise ReconstructionError(
                f"contact value {b[j]} at position {j} is too small to open "
                "a new block"
            )
        # The block opens on the previous block's last point, a run of e_{j-1}.
        first_count, rest = divmod(y, gcd_here)
        runs[-1] = (gcd_here, runs[-1][1] + first_count - 1)
        if rest:
            runs += _euclid_block_values(rest, gcd_here)
        gcd_prev, gcd_here = gcd_here, math.gcd(gcd_here, y)

    if runs[-1][0] != 1:
        raise ReconstructionError(
            "sequence does not terminate: the final multiplicity would be "
            f"{runs[-1][0]}, not 1"
        )
    # Free points lengthen the final run of 1s; a lone point has tangent count 1.
    runs[-1] = (1, runs[-1][1] + trailing_free)
    return Configuration(tuple(runs), 2 if len(runs) > 1 or runs[0][1] > 1 else 1)


__all__ = [
    "InvariantRecord",
    "MultiplicityVector",
    "curvette_vector",
    "from_maximal_contact",
    "invariant_record",
    "maximal_contact_values",
    "multiplicity_sequence",
    "noether_pairing",
    "normalized_volume",
    "puiseux_exponents",
]
