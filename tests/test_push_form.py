"""The point-level references push the backward recursion over the chain's
``older`` array: each point, latest first, adds its value to its
predecessor and to its older target.  The pull form they replaced reads the
points proximate to each point from ``proximate_points``,

    w_k = 1,  w_i = sum of w_j over the points p_j proximate to p_i (i < k),

and stays here as their oracle, on every chain of at most 10 points and on
random chains of up to 200.  The proximity residual, which takes a vector
as runs and keeps entries only where they can be nonzero, is held to the
pull-form residual the same way.
"""

import itertools

from hypothesis import given, settings

from strategies import configurations, proximate_points
from valuation_lab.configurations import (
    build_configuration,
    proximity_residual,
    value_runs,
)
from valuation_lab.invariants import curvette_vector, multiplicity_sequence


def pull(cfg, k):
    """w_1..w_n of the pull-form recursion started at w_k = 1."""
    incoming = proximate_points(cfg)
    w = [0] * (cfg.size + 1)
    w[k] = 1
    for i in range(k - 1, 0, -1):
        w[i] = sum(w[j] for j in incoming[i])
    return tuple(w[1:])


def pull_residual(cfg, v):
    """v_i minus the sum of v_j over the points proximate to p_i."""
    incoming = proximate_points(cfg)
    return [
        v[i - 1] - sum(v[j - 1] for j in incoming[i]) for i in range(1, cfg.size + 1)
    ]


def assert_push_matches_pull(cfg):
    n = cfg.size
    v = pull(cfg, n)
    assert multiplicity_sequence(cfg).values == v
    for k in range(1, n + 1):
        assert curvette_vector(cfg, k) == pull(cfg, k)
    # The residual of the multiplicities (zero but for v_n = 1), of the same
    # with v_n raised by one (an inequality broken by one before p_n), of a
    # vector that breaks the proximity equalities almost everywhere, and of
    # ones raised at p_n: one run spans every stretch target, where the
    # residual is negative, and ends at p_{n-1}, negative too but later.
    raised = (*v[:-1], v[-1] + 1)
    noisy = tuple((7 * i + 3) % 11 for i in range(n))
    for vector in (v, raised, noisy, (1,) * (n - 1) + (2,)):
        residual = pull_residual(cfg, vector)
        runs = value_runs(vector)
        pushed = proximity_residual(cfg, runs)
        assert [pushed.get(i, 0) for i in range(1, n + 1)] == residual
        # Ascending, and keyed only by run ends and stretch targets.
        ends = set(itertools.accumulate(count for _, count in runs))
        targets = {target for _, _, target in cfg.structure.stretches}
        assert list(pushed) == sorted(pushed) and set(pushed) <= ends | targets


def test_every_small_chain(small_chains):
    for lists in small_chains:
        cfg = build_configuration(lists)
        assert cfg.older == [0, *(t[0] if len(t) == 2 else 0 for t in lists)]
        assert_push_matches_pull(cfg)
    assert len(small_chains) == 2585


@given(configurations(max_points=200))
@settings(max_examples=40, deadline=None)
def test_long_random_chains(cfg):
    assert_push_matches_pull(cfg)
