"""Chains of infinitely near points: validation, classification, extension.

A configuration is an ordered chain p_1, ..., p_n in which every point
p_i (i >= 2) lies on the exceptional divisor of its predecessor and is
therefore proximate to p_{i-1}.  A point proximate to a second, older
point is a satellite; the admissible older targets for p_i are exactly
the points that p_{i-1} is itself proximate to (those exceptional
divisors still meet the one through p_{i-1}), listed by
``satellite_targets`` (Enriques' proximity rule).

Tangent membership is geometric data on top of the proximity structure:
the flagged points form an initial segment {1, ..., k} and, from index 3
on, a smooth line can only follow free points.  ``Configuration`` checks
k itself, an ``int`` in range up to ``max_tangent_count``, read off the runs.

The multiplicity sequence determines the proximity structure: the points
proximate to p_i are the consecutive points after it whose multiplicities
sum to v_i.  A configuration is therefore held as its multiplicity runs
``((value, count), ...)`` plus its tangent count and nothing else.  Inside
a run every point has only its successor proximate to it, so the
proximity structure is read at the run ends as satellite stretches.

Point by point, a chain is one flat array ``older``: 1-based, each point's
older proximity target, 0 for a free point (and entry 0).  Like the size
and the stretches, it is derived on first read and kept; every per-point
view reads it, and the backward recursion runs on it in push form: each
point, latest first, adds its value to its predecessor and older target.
The proximity residual lists none: it takes runs and reads the stretches.
``build_configuration`` writes this array as it validates the lists,
comparing each sorted one in place and sending any other form through
sets; it rejects a target that is not an ``int`` (a bool is not one).
``extend_with_satellite_tail`` extends the array.  Both hand it to
``_from_older``, which pushes it into runs in one backward pass
(``push_runs``), ending each run as soon as its value is final, and seeds
the structure with the satellite stretches of the validated array;
``run_structure`` matches run ends with whole runs only for a chain given as
runs.  ``_cut_blocks`` cuts the blocks for both; ``block_decomposition``
returns the structure.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import ChainTooLongError, InvalidConfigurationError, ReconstructionError

FREE = "free"
SATELLITE = "satellite"

# Largest chain that is ever listed point by point (points, multiplicities).
# Longer chains still get every run-level invariant and bound; listing them
# raises ChainTooLongError.
MAX_LISTED_POINTS = 10**7


def require_listable(count: int, template: str) -> None:
    """The one check of ``count`` items against MAX_LISTED_POINTS, read at call
    time; ``template`` is formatted with ``count`` and ``limit`` only to raise."""
    if count > MAX_LISTED_POINTS:
        raise ChainTooLongError(template.format(count=count, limit=MAX_LISTED_POINTS))


def require_int(value: object, name: str, error=InvalidConfigurationError) -> None:
    """Reject a ``value`` that is not an ``int`` (a bool is not one)."""
    if type(value) is not int:
        raise error(f"{name} must be an integer, got {value!r}")


def require_ints(values: Iterable[object], name: str, error=InvalidConfigurationError):
    """``values`` as a tuple, each entry checked by ``require_int`` as ``name[i]``."""
    values = tuple(values)
    for i, x in enumerate(values):
        require_int(x, f"{name}[{i}]", error)
    return values


def expand_runs(runs: Sequence[tuple[int, int]]) -> list[int]:
    """List run-length data point by point: the one place a chain is listed."""
    require_listable(
        sum(count for _, count in runs),
        "a chain of {count} points is too long to list point by point "
        "(limit {limit})",
    )
    out: list[int] = []
    for value, count in runs:
        out += [value] * count
    return out


class RunStructure(NamedTuple):
    """The proximity structure of a chain, read at the ends of its runs.

    ``ends[s]`` is the last point of run s.  ``stretches`` holds
    ``(first, last, target)``: the satellites p_first..p_last, each
    proximate to its predecessor and to the run end p_target.  Blocks
    C_1..C_{g+1} overlap and are cut at the ends of maximal satellite runs:
    ``boundaries`` holds (l_0, ..., l_{g+1}) with l_0 = 1 and l_{g+1} = n,
    block C_j is the closed index range [l_{j-1}, l_j], and
    ``last_free_indices`` holds r_1..r_g, the last free point of each
    satellite-terminated block.
    """

    ends: tuple[int, ...]
    stretches: tuple[tuple[int, int, int], ...]
    boundaries: tuple[int, ...]
    last_free_indices: tuple[int, ...]

    @property
    def genus_count(self) -> int:
        return len(self.last_free_indices)

    @property
    def blocks(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(self.boundaries, self.boundaries[1:]))


def run_structure(runs: Sequence[tuple[int, int]]) -> RunStructure:
    """Proximity structure of the chain with these multiplicity runs.

    Each run end p_i but p_n is matched with the points after it until their
    multiplicities sum to v_i: whole runs while they fall short, then the
    part of one run that completes the match.  Any mismatch, or a point left
    proximate to three others, means no chain realizes the runs.
    """
    ends = tuple(itertools.accumulate(count for _, count in runs))
    if runs[-1][0] != 1:
        raise ReconstructionError(f"the last multiplicity is {runs[-1][0]}, not 1")
    weights = [value * count for value, count in runs]
    stretches: list[tuple[int, int, int]] = []
    # Nothing is proximate to p_n, the end of the last run.
    for s in range(len(runs) - 1):
        value, end = runs[s][0], ends[s]
        need, t = value, s + 1
        while need > weights[t]:
            need -= weights[t]
            t += 1
            if t == len(runs):
                raise ReconstructionError(
                    f"multiplicity {value} at position {end} cannot be matched "
                    "by the points that follow"
                )
        taken, short = divmod(need, runs[t][0])
        if short:
            raise ReconstructionError(
                f"multiplicities after position {end} overshoot the proximity "
                f"equality ({value + runs[t][0] - short} > {value})"
            )
        last = ends[t - 1] + taken
        if last >= end + 2:
            if stretches and stretches[-1][1] >= end + 2:
                raise ReconstructionError(
                    f"p_{end + 2} would be proximate to three points"
                )
            stretches.append((end + 2, last, end))
    return _cut_blocks(ends, tuple(stretches))


def _cut_blocks(ends: tuple[int, ...], stretches: tuple) -> RunStructure:
    """Blocks end where maximal satellite runs end; touching stretches merge."""
    block_ends: list[int] = []
    last_free: list[int] = []
    for first, last, _ in stretches:
        if block_ends and block_ends[-1] == first - 1:
            block_ends[-1] = last
        else:
            block_ends.append(last)
            last_free.append(first - 1)
    return RunStructure(ends, stretches, (1, *block_ends, ends[-1]), tuple(last_free))


def push_runs(older: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """The backward recursion from w_n = 1, n the last point, as runs
    ``((value, count), ...)`` in one pass: ``value_runs(push_values(older, n)[1:])``.
    A point's value is final once every later point has pushed, so each
    point, latest first, is added to the current run or ends it."""
    pushed = [0] * len(older)
    runs: list[tuple[int, int]] = []
    value, count = 1, 0
    for j in range(len(older) - 1, 0, -1):
        if pushed[j]:
            runs.append((value, count))
            value, count = value + pushed[j], 1
        else:
            count += 1
        if older[j]:
            pushed[older[j]] += value
    runs.append((value, count))
    runs.reverse()
    return tuple(runs)


def push_values(older: Sequence[int], k: int) -> list[int]:
    """The backward recursion from w_k = 1: each p_j (j <= k), latest first,
    adds w_j to its predecessor and to ``older[j]``.  Entries past k stay 0,
    and entry 0 collects the pushes of free points."""
    w = [0] * len(older)
    w[k] = 1
    for j in range(k, 1, -1):
        x = w[j]
        w[j - 1] += x
        w[older[j]] += x
    return w


def proximity_residual(
    cfg: Configuration, m: Sequence[tuple[int, int]]
) -> dict[int, int]:
    """m_i minus the m_j of the points proximate to p_i, for m as runs
    ``((value, count), ...)``: ``{point: residual}``, ascending, with entries
    only at m's run ends and the stretch targets (every other one is 0).
    Each stretch is summed by prefix sums over the runs; nothing is listed."""
    values = [value for value, _ in m]
    ends = list(itertools.accumulate(count for _, count in m))
    sums = [0, *itertools.accumulate(value * count for value, count in m)]
    residual = dict(zip(ends, map(operator.sub, values, [*values[1:], 0])))
    for first, last, target in cfg.structure.stretches:
        # m_first + ... + m_last as two prefix sums m_1 + ... + m_i, at p_last
        # and at p_{first-1}, each read off the run s or r that holds it.
        s, r = bisect.bisect_left(ends, last), bisect.bisect_left(ends, first - 1)
        stretch = sums[s + 1] - (ends[s] - last) * values[s]
        stretch -= sums[r + 1] - (ends[r] - first + 1) * values[r]
        residual[target] = residual.get(target, 0) - stretch
    # A stretch target that ends no run of m was added last, out of order.
    return residual if len(residual) == len(ends) else dict(sorted(residual.items()))


def satellite_targets(i: int, prev_older: int) -> list[int]:
    """The older targets p_i (i >= 3) may take, ascending: the points p_{i-1}
    is proximate to, that is p_{i-2} and ``prev_older``, the older target of
    p_{i-1} (0 when p_{i-1} is free)."""
    return [prev_older, i - 2] if prev_older else [i - 2]


def value_runs(values: Iterable[int]) -> tuple[tuple[int, int], ...]:
    """Run-length form ``((value, count), ...)`` of a listed sequence."""
    return tuple((value, len(list(run))) for value, run in itertools.groupby(values))


@dataclass(frozen=True)
class Configuration:
    """Immutable, validated chain of infinitely near points.

    Its multiplicity runs and tangent count are its whole state, and equality
    compares them; a name belongs to the file entry that holds the chain.
    ``size``, ``structure`` and the ``older`` array that every per-point view
    reads are cached properties, derived on first read or seeded by the build;
    the constructor reads ``size`` to check the tangent segment {p_1..p_k}:
    k is 1 for a single point, else 2..n, and at most ``max_tangent_count``.
    """

    runs: tuple[tuple[int, int], ...]
    tangent_count: int

    def __post_init__(self) -> None:
        require_int(self.tangent_count, "tangent_count")
        k, n, top = self.tangent_count, self.size, max_tangent_count(self)
        if n < 1:
            raise InvalidConfigurationError("a configuration needs at least one point")
        if n == 1 and k != 1:
            raise InvalidConfigurationError(
                "tangent_count must be 1 for a single point"
            )
        if n > 1 and not 2 <= k <= n:
            raise InvalidConfigurationError(
                f"tangent_count must lie in 2..{n} for {n} points"
            )
        if k > top:
            raise InvalidConfigurationError(
                f"tangent segment cannot reach p_{top + 1}: a smooth line "
                "cannot pass through a satellite point"
            )

    @cached_property
    def size(self) -> int:
        return sum(count for _, count in self.runs)

    @cached_property
    def structure(self) -> RunStructure:
        """The run-level proximity structure."""
        return run_structure(self.runs)

    @cached_property
    def older(self) -> list[int]:
        """The ``older`` array, listed once from the satellite stretches and
        shared by every caller, who must not modify it: the satellites of a
        stretch (first, last, target) have the target, every other point 0."""
        runs, start = [], 1
        for first, last, target in self.structure.stretches:
            runs += [(0, first - start), (target, last - first + 1)]
            start = last + 1
        runs.append((0, self.size - start + 1))
        return [0, *expand_runs(runs)]

    def proximity_lists(self) -> list[list[int]]:
        """Plain 1-based proximity lists, each sorted ascending."""
        older = self.older
        return [[t for t in (older[i], i - 1) if t] for i in range(1, len(older))]


def build_configuration(
    proximity_lists: Sequence[Iterable[int]], tangent_count: int | None = None
) -> Configuration:
    """Validate proximity lists and tangent data, returning a Configuration.

    ``proximity_lists[i-1]`` holds the targets of p_i.  The default tangent
    segment is {p_1, p_2} (just {p_1} for a single point).
    """
    n = len(proximity_lists)
    if n < 1:
        raise InvalidConfigurationError("a configuration needs at least one point")

    if [*proximity_lists[0]]:
        raise InvalidConfigurationError("p_1 cannot be proximate to anything")
    older = [0] * (n + 1)
    for i in range(2, n + 1):
        raw = proximity_lists[i - 1]
        # Sorted lists of ints, compared in place: [i - 1] for a free point,
        # the common case, and [t, i - 1] for a satellite whose t is admissible.
        if isinstance(raw, list):
            size = len(raw)
            if size == 1 and raw[0] == i - 1 and type(raw[0]) is int:
                continue
            if (
                size == 2
                and raw[1] == i - 1
                and type(raw[1]) is type(raw[0]) is int
                and raw[0]
                and (raw[0] == i - 2 or raw[0] == older[i - 1])
            ):
                older[i] = raw[0]
                continue
        listed = [*raw]
        if any(type(t) is not int for t in listed):
            raise InvalidConfigurationError(f"p_{i}: targets must be integers")
        targets = set(listed)
        if any(t < 1 or t >= i for t in targets):
            raise InvalidConfigurationError(
                f"p_{i}: proximity targets must be earlier points"
            )
        if (i - 1) not in targets:
            raise InvalidConfigurationError(f"p_{i} must be proximate to p_{i - 1}")
        if len(targets) > 2:
            raise InvalidConfigurationError(
                f"p_{i}: a point is proximate to at most two points"
            )
        if len(targets) == 2:
            target = min(targets)
            if target not in satellite_targets(i, older[i - 1]):
                raise InvalidConfigurationError(
                    f"p_{i} claims proximity to p_{target}, but p_{i - 1} is not "
                    f"proximate to p_{target} (its divisor no longer meets E_{i - 1})"
                )
            older[i] = target

    return _from_older(older, min(2, n) if tangent_count is None else tangent_count)


def _from_older(older: list[int], tangent_count: int) -> Configuration:
    """The configuration of a validated ``older`` array, pushed into runs.

    Its stretches (first, last, target) seed the cached structure: a target
    p_{i-2} starts one, any other target extends it; no run is matched."""
    stretches: list[tuple[int, int, int]] = []
    for i in itertools.compress(range(len(older)), older):
        first = i if older[i] == i - 2 else stretches.pop()[0]
        stretches.append((first, i, first - 2))
    cfg = Configuration(push_runs(older), tangent_count)
    ends = tuple(itertools.accumulate(count for _, count in cfg.runs))
    vars(cfg)["structure"] = _cut_blocks(ends, tuple(stretches))
    return cfg


def classify_points(cfg: Configuration) -> list[str]:
    """Label each point free or satellite (two proximity targets)."""
    return [SATELLITE if older else FREE for older in cfg.older[1:]]


def block_decomposition(cfg: Configuration) -> RunStructure:
    """The run structure, whose blocks are cut at the ends of maximal
    satellite runs."""
    return cfg.structure


def require_free_end(cfg: Configuration) -> None:
    """Reject a chain that no satellite tail can follow: one of fewer than
    two points, or one whose last point is a satellite."""
    if cfg.size < 2:
        raise InvalidConfigurationError("satellite tail needs at least two points")
    stretches = cfg.structure.stretches
    if stretches and stretches[-1][1] == cfg.size:
        raise InvalidConfigurationError("satellite tail must start after a free point")


def extend_with_satellite_tail(
    cfg: Configuration, choices: Sequence[int]
) -> Configuration:
    """Append a chain of satellite points, one per entry of ``choices``.

    Each appended point is proximate to its predecessor and to the chosen
    older point, one of ``satellite_targets``.  The first choice is forced
    to n-1: p_n is free, so it is proximate to p_{n-1} alone.
    """
    require_free_end(cfg)
    if not choices:
        return cfg

    older = [*cfg.older]
    for offset, c in enumerate(choices):
        require_int(c, f"choices[{offset}]")
        options = satellite_targets(len(older), older[-1])
        if c not in options:
            raise InvalidConfigurationError(
                f"tail point {offset + 1}: target p_{c} is not admissible "
                f"(options: {options})"
            )
        older.append(c)
    return _from_older(older, cfg.tangent_count)


def max_tangent_count(cfg: Configuration) -> int:
    """Largest admissible tangent segment length, read off the runs: the
    point before the first satellite.  Inside the first run p_1..p_c each
    point has only its successor proximate, and v_c > v_{c+1} makes p_{c+2}
    proximate to p_c, so p_{c+2} is the first satellite; one run is all free."""
    runs = cfg.runs
    return runs[0][1] + 1 if len(runs) > 1 else cfg.size


__all__ = [
    "MAX_LISTED_POINTS",
    "Configuration",
    "block_decomposition",
    "build_configuration",
    "classify_points",
    "extend_with_satellite_tail",
]
