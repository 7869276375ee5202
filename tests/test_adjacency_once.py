"""Derive once, for the per-point listing: ``identity_checks`` lists a
chain's ``older`` array once per configuration, and every per-point reader
(the proximity residual, the point-level references) shares that array.

The counter wraps ``configurations._older_targets``, which lists it.
"""

import pytest

from valuation_lab import configurations
from valuation_lab.bounds import tono_family
from valuation_lab.checks import identity_checks
from valuation_lab.configurations import build_configuration
from valuation_lab.invariants import from_maximal_contact

CHAINS = {
    "satellite": lambda: build_configuration(
        [[], [1], [2, 1], [3, 1], [4]], tangent_count=2
    ),
    "two-blocks": lambda: from_maximal_contact((4, 6, 13), trailing_free=3),
    "free-tail": lambda: from_maximal_contact((1, 50)),
    "tono": lambda: tono_family(3, 0).bundle.cfg,
}


@pytest.mark.parametrize("make", CHAINS.values(), ids=CHAINS.keys())
def test_identity_checks_build_the_adjacency_at_most_twice(monkeypatch, make):
    cfg = make()
    assert cfg.size >= 3
    sizes = []
    real = configurations._older_targets

    def counted(cfg):
        sizes.append(cfg.size)
        return real(cfg)

    monkeypatch.setattr(configurations, "_older_targets", counted)
    results = identity_checks(cfg)
    assert all(r.passed for r in results)
    # One for the chain, one for the chain the contact round trip rebuilds.
    assert len(sizes) <= 2
    assert sizes.count(cfg.size) >= 1
