"""Chains of infinitely near points: validation, classification, extension.

A configuration is an ordered chain p_1, ..., p_n in which every point
p_i (i >= 2) lies on the exceptional divisor of its predecessor and is
therefore proximate to p_{i-1}.  A point proximate to a second, older
point is a satellite; the admissible older targets for p_i are exactly
the points that p_{i-1} is itself proximate to (those exceptional
divisors still meet the one through p_{i-1}).

Tangent membership is geometric data on top of the proximity structure:
the flagged points form an initial segment {1, ..., k} and, from index 3
on, a smooth line can only follow free points.

The multiplicity sequence determines the proximity structure: the points
proximate to p_i are the consecutive points after it whose multiplicities
sum to v_i.  A configuration is therefore held as its multiplicity runs
``((value, count), ...)`` plus its tangent count, and its points are
listed only on request.  Inside a run every point has only its successor
proximate to it, so the proximity structure is read at the run ends.
"""

from __future__ import annotations

import bisect
import itertools
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from .errors import ChainTooLongError, InvalidConfigurationError, ReconstructionError

FREE = "free"
SATELLITE = "satellite"

# Largest chain that is ever listed point by point (points, multiplicities).
# Longer chains still get every run-level invariant and bound; listing them
# raises ChainTooLongError.
MAX_LISTED_POINTS = 10**7


def expand_runs(runs: Sequence[tuple[int, int]]) -> list[int]:
    """List run-length data point by point: the one place a chain is listed,
    hence the one place its size is checked against MAX_LISTED_POINTS."""
    size = sum(count for _, count in runs)
    if size > MAX_LISTED_POINTS:
        raise ChainTooLongError(
            f"a chain of {size} points is too long to list point by point "
            f"(limit {MAX_LISTED_POINTS})"
        )
    out: list[int] = []
    for value, count in runs:
        out += [value] * count
    return out


@dataclass(frozen=True, slots=True)
class PointRecord:
    """One point of the chain: 1-based index, proximity targets, tangent flag."""

    index: int
    proximate_to: frozenset[int]
    on_tangent: bool


@dataclass(frozen=True, slots=True)
class BlockDecomposition:
    """Overlapping blocks C_1..C_{g+1} cut at the ends of satellite runs.

    ``boundaries`` holds (l_0, ..., l_{g+1}) with l_0 = 1 and l_{g+1} = n;
    block C_j is the closed index range [l_{j-1}, l_j].  ``last_free_indices``
    holds r_1..r_g, the last free point of each satellite-terminated block.
    """

    boundaries: tuple[int, ...]
    last_free_indices: tuple[int, ...]
    genus_count: int

    @property
    def blocks(self) -> tuple[tuple[int, int], ...]:
        b = self.boundaries
        return tuple((b[j], b[j + 1]) for j in range(len(b) - 1))


@dataclass(frozen=True, slots=True)
class RunStructure:
    """The proximity structure of a chain, read at the ends of its runs.

    ``ends[s]`` is the last point of run s.  ``stretches`` holds
    ``(first, last, target)``: the satellites p_first..p_last, each
    proximate to its predecessor and to the run end p_target.
    """

    ends: tuple[int, ...]
    stretches: tuple[tuple[int, int, int], ...]
    decomposition: BlockDecomposition

    def spans(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """(run index, points of that run inside [lo, hi]) for each run
        meeting the closed range [lo, hi]."""
        out = []
        s = bisect.bisect_left(self.ends, lo)
        start = lo
        while s < len(self.ends) and start <= hi:
            end = min(self.ends[s], hi)
            out.append((s, end - start + 1))
            start = end + 1
            s += 1
        return out


def run_structure(runs: Sequence[tuple[int, int]]) -> RunStructure:
    """Proximity structure of the chain with these multiplicity runs.

    Each run end p_i is matched greedily with the points after it until
    their multiplicities sum to v_i; any mismatch, or a point left
    proximate to three others, means no chain realizes the runs.
    """
    ends = tuple(itertools.accumulate(count for _, count in runs))
    if runs[-1][0] != 1:
        raise ReconstructionError(f"the last multiplicity is {runs[-1][0]}, not 1")
    stretches: list[tuple[int, int, int]] = []
    for s, ((value, _), end) in enumerate(zip(runs, ends)):
        # Nothing is proximate to p_n, the end of the last run.
        need = value if s + 1 < len(runs) else 0
        t, last = s + 1, end
        while need > 0:
            if t == len(runs):
                raise ReconstructionError(
                    f"multiplicity {value} at position {end} cannot be matched "
                    "by the points that follow"
                )
            taken = min(runs[t][1], -(-need // runs[t][0]))
            need -= taken * runs[t][0]
            last = ends[t - 1] + taken
            t += 1
        if need < 0:
            raise ReconstructionError(
                f"multiplicities after position {end} overshoot the proximity "
                f"equality ({value - need} > {value})"
            )
        if last >= end + 2:
            if stretches and stretches[-1][1] >= end + 2:
                raise ReconstructionError(
                    f"p_{end + 2} would be proximate to three points"
                )
            stretches.append((end + 2, last, end))

    # Blocks end where maximal satellite runs end; touching stretches merge.
    merged: list[list[int]] = []
    for first, last, _ in stretches:
        if merged and merged[-1][1] + 1 == first:
            merged[-1][1] = last
        else:
            merged.append([first, last])
    decomposition = BlockDecomposition(
        boundaries=(1, *(last for _, last in merged), ends[-1]),
        last_free_indices=tuple(first - 1 for first, _ in merged),
        genus_count=len(merged),
    )
    return RunStructure(
        ends=ends, stretches=tuple(stretches), decomposition=decomposition
    )


@dataclass(frozen=True, slots=True)
class Configuration:
    """Immutable, validated chain of infinitely near points.

    Held as its multiplicity runs and tangent count; ``points`` are listed
    on first request (``build_configuration`` passes the ones it validated).
    Equality compares runs, tangent count and name.
    """

    runs: tuple[tuple[int, int], ...]
    tangent_count: int
    name: str | None = None
    _points: tuple[PointRecord, ...] | None = field(
        default=None, compare=False, repr=False
    )
    _structure: RunStructure | None = field(
        default=None, init=False, compare=False, repr=False
    )

    @property
    def size(self) -> int:
        return sum(count for _, count in self.runs)

    @property
    def structure(self) -> RunStructure:
        """The run-level proximity structure, derived once."""
        if self._structure is None:
            object.__setattr__(self, "_structure", run_structure(self.runs))
        return self._structure

    @property
    def points(self) -> tuple[PointRecord, ...]:
        if self._points is None:
            # Each point's older proximity target, as runs; 0 for none.
            older_runs = []
            start = 1
            for first, last, target in self.structure.stretches:
                older_runs += [(0, first - start), (target, last - first + 1)]
                start = last + 1
            older_runs.append((0, self.size - start + 1))
            points = tuple(
                PointRecord(
                    index=i,
                    proximate_to=frozenset(t for t in (i - 1, older) if t),
                    on_tangent=(i <= self.tangent_count),
                )
                for i, older in enumerate(expand_runs(older_runs), start=1)
            )
            object.__setattr__(self, "_points", points)
        return self._points

    def proximity_lists(self) -> list[list[int]]:
        """Plain 1-based proximity lists, each sorted ascending."""
        return [sorted(p.proximate_to) for p in self.points]

    def proximate_points(self, upto: int | None = None) -> list[list[int]]:
        """Entry i lists the points of p_1..p_upto (default: all) that are
        proximate to p_i; 1-based, entry 0 unused."""
        k = self.size if upto is None else upto
        incoming: list[list[int]] = [[] for _ in range(k + 1)]
        for p in self.points[:k]:
            for target in p.proximate_to:
                incoming[target].append(p.index)
        return incoming


def build_configuration(
    proximity_lists: Sequence[Iterable[int]],
    tangent_count: int | None = None,
    name: str | None = None,
) -> Configuration:
    """Validate proximity lists and tangent data, returning a Configuration.

    ``proximity_lists[i-1]`` holds the targets of p_i.  The default tangent
    segment is {p_1, p_2} (just {p_1} for a single point).
    """
    n = len(proximity_lists)
    if n < 1:
        raise InvalidConfigurationError("a configuration needs at least one point")

    prox: list[frozenset[int]] = []
    for i, raw in enumerate(proximity_lists, start=1):
        targets = frozenset(int(t) for t in raw)
        if i == 1:
            if targets:
                raise InvalidConfigurationError("p_1 cannot be proximate to anything")
            prox.append(targets)
            continue
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
            older = min(targets)
            if older not in prox[i - 2]:
                raise InvalidConfigurationError(
                    f"p_{i} claims proximity to p_{older}, but p_{i - 1} is not "
                    f"proximate to p_{older} (its divisor no longer meets E_{i - 1})"
                )
        prox.append(targets)

    if tangent_count is None:
        tangent_count = min(2, n)
    k = int(tangent_count)
    if n == 1:
        if k != 1:
            raise InvalidConfigurationError(
                "tangent_count must be 1 for a single point"
            )
    else:
        if k < 2 or k > n:
            raise InvalidConfigurationError(
                f"tangent_count must lie in 2..{n} for {n} points"
            )
        for i in range(3, k + 1):
            if len(prox[i - 1]) != 1:
                raise InvalidConfigurationError(
                    f"tangent segment cannot reach p_{i}: a smooth line cannot "
                    "pass through a satellite point"
                )

    # v_n = 1; every point, latest first, adds its value to its targets.
    v = [0] * (n + 1)
    v[n] = 1
    for j in range(n, 1, -1):
        for target in prox[j - 1]:
            v[target] += v[j]
    runs = tuple((value, len(list(run))) for value, run in itertools.groupby(v[1:]))
    points = tuple(
        PointRecord(index=i, proximate_to=prox[i - 1], on_tangent=(i <= k))
        for i in range(1, n + 1)
    )
    return Configuration(runs=runs, tangent_count=k, name=name, _points=points)


def classify_points(cfg: Configuration) -> list[str]:
    """Label each point free or satellite (two proximity targets)."""
    return [SATELLITE if len(p.proximate_to) == 2 else FREE for p in cfg.points]


def block_decomposition(cfg: Configuration) -> BlockDecomposition:
    """Cut the chain into blocks at the ends of maximal satellite runs."""
    return cfg.structure.decomposition


def append_free_chain(cfg: Configuration, k: int) -> Configuration:
    """Extend by k free points, each proximate only to its predecessor.

    Every chain ends in a run of 1s, which the new points lengthen.
    """
    if k < 0:
        raise InvalidConfigurationError("cannot append a negative number of points")
    if k == 0:
        return cfg
    *head, (value, count) = cfg.runs
    return Configuration(
        runs=(*head, (value, count + k)),
        # Appended to a single point, p_2 fixes the tangent direction through p_1.
        tangent_count=max(cfg.tangent_count, 2),
        name=cfg.name,
    )


def extend_with_satellite_tail(
    cfg: Configuration, choices: Sequence[int]
) -> Configuration:
    """Append a chain of satellite points, one per entry of ``choices``.

    Each appended point is proximate to its predecessor and to the chosen
    older point, which must be among the predecessor's own proximity
    targets.  The first choice is forced to n-1.
    """
    if cfg.size < 2:
        raise InvalidConfigurationError("satellite tail needs at least two points")
    if len(cfg.points[-1].proximate_to) == 2:
        raise InvalidConfigurationError(
            "satellite tail must start after a free point"
        )
    if not choices:
        return cfg

    lists = cfg.proximity_lists()
    allowed = cfg.points[-1].proximate_to
    prev = cfg.size
    for offset, choice in enumerate(choices):
        c = int(choice)
        if c not in allowed:
            raise InvalidConfigurationError(
                f"tail point {offset + 1}: target p_{c} is not admissible "
                f"(options: {sorted(allowed)})"
            )
        lists.append([c, prev])
        allowed = frozenset({prev, c})
        prev += 1
    return build_configuration(lists, cfg.tangent_count, name=cfg.name)


def max_tangent_count(cfg: Configuration) -> int:
    """Largest admissible tangent segment length for this proximity structure."""
    stretches = cfg.structure.stretches
    return stretches[0][0] - 1 if stretches else cfg.size


def with_tangent_count(cfg: Configuration, tangent_count: int) -> Configuration:
    """Same proximity structure, different tangent segment."""
    return build_configuration(cfg.proximity_lists(), tangent_count, name=cfg.name)
