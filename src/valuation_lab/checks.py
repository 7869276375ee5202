"""Randomized configuration generator and the built-in identity suite.

The same identity suite backs the ``check`` command (run on parsed files)
and the ``fuzz`` command (run on random configurations); failures are
reported as findings, never raised.  One suite reads a valuation's bundle
(the one ``check`` already holds for a file entry) and the runs and lists
nothing, so it costs O(runs) at any chain length: the proximity residual is
taken once over the runs, and the contact round trip compares runs.  Every
row compares integers and builds no ``Fraction``: ceilings are floor
divisions.  Each row checks a fact that no other row and no single step of
the record or bundle already fixes, so delta0, a ceiling, has no row, and
neither has the first Puiseux ratio: the record sets beta_bar_1 from it in
one step, and the tests hold q_j e_j = e_{j-1} for every block.  The nef
pairings of lambda with the curve-cone generators are checked point by
point in the tests, through ``surface.nef_on_generators``.
``proximity-equalities`` compares the runs with the satellite stretches
that the proximity lists state, or, for a chain given as runs, that
``run_structure`` matches.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .bounds import ValuationBundle, _combinatorial_bound, ceil_div, valuation_bundle
from .configurations import (
    Configuration,
    build_configuration,
    proximity_residual,
    require_free_end,
    require_int,
    require_listable,
    satellite_targets,
)
from .invariants import from_maximal_contact

# Fraction of growth steps steered toward satellite points, to exercise
# deep block structures.
SATELLITE_BIAS = 0.3


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class FuzzFailure(NamedTuple):
    """The first failed row of a fuzz run and the chain it failed on, given
    by its proximity lists."""

    trial: int
    proximity: list[list[int]]
    tangent_count: int
    check: str
    detail: str


class FuzzSummary(NamedTuple):
    max_points: int
    trials: int
    seed: int
    checks_passed: int
    checks_failed: int
    first_failure: FuzzFailure | None

    @property
    def ok(self) -> bool:
        return self.checks_failed == 0


def random_configuration(rng: random.Random, max_points: int) -> Configuration:
    """Uniform random size, then admissible growth steps with satellite bias.

    ``max_points`` above the listing limit raises ChainTooLongError before
    anything is drawn: the chain is grown point by point.
    """
    require_int(max_points, "max_points", ValueError)
    if max_points < 1:
        raise ValueError("max_points must be at least 1")
    require_listable(
        max_points,
        "chains of up to {count} points are too long to grow point by point "
        "(limit {limit})",
    )
    n = rng.randint(1, max_points)
    prox: list[list[int]] = [[]]
    prev_older = 0
    first_satellite = n + 1
    for i in range(2, n + 1):
        c = 0
        if i >= 3 and rng.random() < SATELLITE_BIAS:
            c = rng.choice(satellite_targets(i, prev_older))
            first_satellite = min(first_satellite, i)
        prox.append([c, i - 1] if c else [i - 1])
        prev_older = c
    k = rng.randint(2, first_satellite - 1) if n > 1 else None
    return build_configuration(prox, k)


def random_tail_choices(
    cfg: Configuration, length: int, rng: random.Random
) -> list[int]:
    """Admissible older-target sequence for a satellite tail of given length
    after a free p_n: each point takes one of its ``satellite_targets``.

    The first target is forced to n-1 and taken without drawing; every
    later one is drawn from its two options.  Before anything is drawn, a
    negative ``length`` raises ValueError, and a chain of fewer than two
    points, or one ending in a satellite, raises InvalidConfigurationError
    as ``extend_with_satellite_tail`` does.
    """
    require_int(length, "length", ValueError)
    if length < 0:
        raise ValueError("length must be non-negative")
    require_free_end(cfg)
    choices: list[int] = []
    prev_older = 0
    for i in range(cfg.size + 1, cfg.size + 1 + length):
        options = satellite_targets(i, prev_older)
        prev_older = rng.choice(options) if len(options) > 1 else options[0]
        choices.append(prev_older)
    return choices


def identity_checks(bundle: ValuationBundle) -> list[CheckResult]:
    """Run every built-in identity on one valuation, reading its bundle's
    record and the chain's runs; nothing is listed point by point.  The round
    trip compares the runs rebuilt from the contact values with the chain's:
    ``value_runs`` is canonical and ``from_maximal_contact`` builds realizable
    runs, so equal runs are the same chain."""
    results: list[CheckResult] = []
    cfg, record = bundle.cfg, bundle.record
    n = cfg.size
    runs = cfg.runs
    contact = record.beta_bar

    # The first point whose residual is off: it should be 0 before p_n, 1 at p_n.
    residual = proximity_residual(cfg, runs)
    off = next((i for i, r in residual.items() if r != (i == n)), 0)
    detail = f"p_{off} residual {residual[off]}" if off else ""
    results.append(CheckResult("proximity-equalities", not off, detail))

    # Zariski's recursion over the last block against the chain paired with itself.
    square = sum(count * value * value for value, count in runs)
    ok = square == contact[-1]
    detail = "" if ok else f"direct={square} recorded={contact[-1]}"
    results.append(CheckResult("last-contact-value", ok, detail))

    try:
        rebuilt = from_maximal_contact(contact).runs
        ok = rebuilt == runs
        detail = "" if ok else f"rebuilt {rebuilt}"
    except Exception as exc:  # reported, not raised
        ok, detail = False, f"reconstruction failed: {type(exc).__name__}: {exc}"
    results.append(CheckResult("contact-round-trip", ok, detail))

    if n >= 2:
        t = record.tangent_value
        ok = contact[0] < t <= contact[1]
        results.append(
            CheckResult("tangent-range", ok, "" if ok else f"t={t} contact={contact}")
        )

        # The ceiling of the inverse normalized volume, beta_bar_last / beta_bar_0^2.
        ceiling = ceil_div(contact[-1], contact[0] ** 2)
        comb = _combinatorial_bound(cfg, contact)
        ok = comb >= 1 - ceiling >= 1 - n
        detail = "" if ok else f"comb={comb} ceil={ceiling} n={n}"
        results.append(CheckResult("remark-dominance", ok, detail))

    return results


def trial_rng(seed: int, trial: int) -> random.Random:
    # Seed splitting: derive one independent stream per trial from the
    # master seed, deterministically.
    require_int(seed, "seed", ValueError)
    require_int(trial, "trial", ValueError)
    return random.Random(f"{seed}:{trial}")


def fuzz(max_points: int, trials: int, seed: int) -> FuzzSummary:
    """Generate ``trials`` random configurations and run the identity suite."""
    require_int(trials, "trials", ValueError)
    if trials < 1:
        raise ValueError("trials must be at least 1")
    passed = 0
    failed = 0
    first_failure: FuzzFailure | None = None
    for trial in range(trials):
        cfg = random_configuration(trial_rng(seed, trial), max_points)
        for result in identity_checks(valuation_bundle(cfg)):
            if result.passed:
                passed += 1
                continue
            failed += 1
            if first_failure is None:
                first_failure = FuzzFailure(
                    trial=trial,
                    proximity=cfg.proximity_lists(),
                    tangent_count=cfg.tangent_count,
                    check=result.name,
                    detail=result.detail,
                )
    return FuzzSummary(max_points, trials, seed, passed, failed, first_failure)


__all__ = [
    "CheckResult",
    "FuzzFailure",
    "FuzzSummary",
    "SATELLITE_BIAS",
    "fuzz",
    "identity_checks",
    "random_configuration",
    "random_tail_choices",
    "trial_rng",
]
