"""Derive once, for the per-point listing: the point-level references share
a chain's ``older`` array, listed once per configuration, and neither the
proximity residual nor ``identity_checks`` lists it at all.

``Configuration.older`` is a cached property, so a chain that never listed
the array has no ``older`` entry in its instance dictionary.
"""

import pytest

from valuation_lab.bounds import tono_family, valuation_bundle
from valuation_lab.checks import identity_checks
from valuation_lab.configurations import (
    Configuration,
    build_configuration,
    proximity_residual,
    value_runs,
)
from valuation_lab.invariants import from_maximal_contact, multiplicity_sequence

CHAINS = {
    "satellite": lambda: build_configuration(
        [[], [1], [2, 1], [3, 1], [4]], tangent_count=2
    ),
    "two-blocks": lambda: from_maximal_contact((4, 6, 13), trailing_free=3),
    "free-tail": lambda: from_maximal_contact((1, 50)),
    "tono": lambda: tono_family(3, 0).bundle.cfg,
}


@pytest.mark.parametrize("make", CHAINS.values(), ids=CHAINS.keys())
def test_identity_checks_list_no_older_array(make):
    cfg = make()
    assert cfg.size >= 3
    results = identity_checks(valuation_bundle(cfg))
    assert all(r.passed for r in results)
    # Every row reads runs: the suite lists no chain, not even its own.
    assert "older" not in vars(cfg)


@pytest.mark.parametrize("make", CHAINS.values(), ids=CHAINS.keys())
def test_the_residual_lists_no_older_array(make):
    """The proximity residual reads the satellite stretches, so neither it
    nor ``identity_checks`` lists ``older``."""
    built = make()
    v = multiplicity_sequence(built).values
    # A fresh configuration: nothing derived from it is cached yet.
    cfg = Configuration(built.runs, built.tangent_count)
    residual = proximity_residual(cfg, value_runs(v))
    expected = [0] * (cfg.size - 1) + [1]
    assert [residual.get(i, 0) for i in range(1, cfg.size + 1)] == expected
    assert "older" not in vars(cfg)
    assert all(r.passed for r in identity_checks(valuation_bundle(cfg)))
    assert "older" not in vars(cfg)
