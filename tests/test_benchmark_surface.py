"""The package surface that the benchmark's tracer wraps and reads.

``benchmark/tracer.py`` wraps each ``(module, function)`` of its ``LAYERS``
by name and reads attributes off the results, so a rename or a changed
record shape in the package breaks the benchmark, not the package's own
tests.  These tests import the tracer as the benchmark does, with
``benchmark/`` on ``sys.path``, and pin what it relies on.
"""

import importlib
import sys
from pathlib import Path

import pytest

from valuation_lab.bounds import tono_family
from valuation_lab.configurations import block_decomposition
from valuation_lab.invariants import (
    invariant_record,
    maximal_contact_values,
    puiseux_exponents,
)

BENCHMARK = str(Path(__file__).resolve().parent.parent / "benchmark")


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, BENCHMARK)
    try:
        return importlib.import_module("tracer")
    finally:
        sys.path.remove(BENCHMARK)


def test_every_traced_function_resolves(tracer):
    assert tracer.LAYERS
    for module, function, _, _ in tracer.LAYERS:
        found = getattr(importlib.import_module(f"valuation_lab.{module}"), function)
        assert callable(found), f"{module}.{function}"


def test_the_record_counts_read_the_record(tracer):
    cfg = tono_family(3, 0).bundle.cfg
    record = invariant_record(cfg)
    assert record.multiplicities.values == (6, *[3] * 7, *[1] * 9)
    assert record.beta_bar == (6, 9, 34, 108)
    assert tracer._record_counts((cfg,), record) == {
        "invariants.record_calls": 1,
        "invariants.points": 17,
        "invariants.runs": 3,
        "invariants.genus": 2,
    }


def test_the_kept_accessors_expose_their_old_attributes():
    cfg = tono_family(3, 0).bundle.cfg
    blocks = block_decomposition(cfg)
    assert blocks.boundaries == (1, 3, 11, 17)
    assert blocks.last_free_indices == (2, 9)
    assert blocks.genus_count == 2
    assert blocks.blocks == ((1, 3), (3, 11), (11, 17))
    contact = maximal_contact_values(cfg)
    assert contact.beta_bar == (6, 9, 34, 108)
    assert contact.gcd_chain == (6, 3, 1, 1)
    exponents = puiseux_exponents(cfg)
    assert exponents.run_length_tables == ((1, 2), (6, 3), (7,))
    assert exponents.ratios == ((1, 1), (3, 2), (19, 3), (7, 1))
