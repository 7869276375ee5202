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
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .errors import InvalidConfigurationError

FREE = "free"
SATELLITE = "satellite"


@dataclass(frozen=True, slots=True)
class PointRecord:
    """One point of the chain: 1-based index, proximity targets, tangent flag."""

    index: int
    proximate_to: frozenset[int]
    on_tangent: bool


@dataclass(frozen=True, slots=True)
class Configuration:
    """Immutable, validated chain of infinitely near points."""

    points: tuple[PointRecord, ...]
    name: str | None = None

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def tangent_count(self) -> int:
        return sum(1 for p in self.points if p.on_tangent)

    def proximity_lists(self) -> list[list[int]]:
        """Plain 1-based proximity lists, each sorted ascending."""
        return [sorted(p.proximate_to) for p in self.points]

    def proximate_to(self, index: int) -> frozenset[int]:
        return self.points[index - 1].proximate_to

    def proximate_points(self, upto: int | None = None) -> list[list[int]]:
        """Entry i lists the points of p_1..p_upto (default: all) that are
        proximate to p_i; 1-based, entry 0 unused."""
        k = self.size if upto is None else upto
        incoming: list[list[int]] = [[] for _ in range(k + 1)]
        for p in self.points[:k]:
            for target in p.proximate_to:
                incoming[target].append(p.index)
        return incoming


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

    points = tuple(
        PointRecord(index=i, proximate_to=prox[i - 1], on_tangent=(i <= k))
        for i in range(1, n + 1)
    )
    return Configuration(points=points, name=name)


def classify_points(cfg: Configuration) -> list[str]:
    """Label each point free or satellite (two proximity targets)."""
    return [SATELLITE if len(p.proximate_to) == 2 else FREE for p in cfg.points]


def block_decomposition(cfg: Configuration) -> BlockDecomposition:
    """Cut the chain into blocks at the ends of maximal satellite runs."""
    labels = classify_points(cfg)
    n = cfg.size
    boundaries = [1]
    last_free: list[int] = []
    i = 1
    while i <= n:
        if labels[i - 1] == SATELLITE:
            start = i
            while i < n and labels[i] == SATELLITE:
                i += 1
            last_free.append(start - 1)
            boundaries.append(i)
        i += 1
    boundaries.append(n)
    return BlockDecomposition(
        boundaries=tuple(boundaries),
        last_free_indices=tuple(last_free),
        genus_count=len(last_free),
    )


def append_free_chain(cfg: Configuration, k: int) -> Configuration:
    """Extend by k free points, each proximate only to its predecessor."""
    if k < 0:
        raise InvalidConfigurationError("cannot append a negative number of points")
    if k == 0:
        return cfg
    n = cfg.size
    # Appended to a single point, p_2 fixes the tangent direction through p_1.
    points = cfg.points + tuple(
        PointRecord(index=i, proximate_to=frozenset({i - 1}), on_tangent=(i == 2))
        for i in range(n + 1, n + k + 1)
    )
    return Configuration(points=points, name=cfg.name)


def satellite_target_options(cfg: Configuration) -> tuple[int, ...]:
    """Admissible older targets for a satellite point appended after p_n."""
    if cfg.size < 2:
        return ()
    return tuple(sorted(cfg.points[-1].proximate_to))


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

    points = list(cfg.points)
    allowed = cfg.points[-1].proximate_to
    prev = cfg.size
    for offset, choice in enumerate(choices):
        c = int(choice)
        if c not in allowed:
            raise InvalidConfigurationError(
                f"tail point {offset + 1}: target p_{c} is not admissible "
                f"(options: {sorted(allowed)})"
            )
        index = cfg.size + offset + 1
        targets = frozenset({prev, c})
        points.append(PointRecord(index=index, proximate_to=targets, on_tangent=False))
        allowed = targets
        prev = index
    return Configuration(points=tuple(points), name=cfg.name)


def max_tangent_count(cfg: Configuration) -> int:
    """Largest admissible tangent segment length for this proximity structure."""
    if cfg.size == 1:
        return 1
    k = 2
    while k < cfg.size and len(cfg.points[k].proximate_to) == 1:
        k += 1
    return k


def with_tangent_count(cfg: Configuration, tangent_count: int) -> Configuration:
    """Same proximity structure, different tangent segment."""
    return build_configuration(cfg.proximity_lists(), tangent_count, name=cfg.name)
