"""The contact round trip against an independent beta-bar -> runs expansion.

``benchmark/workloads.py::contact_runs`` expands contact values into
multiplicity runs by its own subtractive Euclidean algorithm, to check the
benchmark's reports.  It shares no code with ``from_maximal_contact``, so
the two agreeing on every chain here pins the runs that the contact round
trip of ``check`` rebuilds.  It is imported as the benchmark imports it,
with ``benchmark/`` on ``sys.path``.
"""

import importlib
import sys
from pathlib import Path

import pytest

from valuation_lab.configurations import build_configuration
from valuation_lab.invariants import from_maximal_contact, invariant_record

BENCHMARK = str(Path(__file__).resolve().parent.parent / "benchmark")


@pytest.fixture(scope="module")
def contact_runs():
    sys.path.insert(0, BENCHMARK)
    try:
        return importlib.import_module("workloads").contact_runs
    finally:
        sys.path.remove(BENCHMARK)


def assert_expansions_agree(contact_runs, seq, trailing_free):
    rebuilt = from_maximal_contact(seq, trailing_free=trailing_free).runs
    expected = tuple(contact_runs(list(seq), trailing_free))
    assert rebuilt == expected, (seq, trailing_free)


def test_record_contact_values_of_the_fuzz_corpus(contact_runs, fuzz_corpus):
    for i, cfg in enumerate(fuzz_corpus):
        assert_expansions_agree(contact_runs, invariant_record(cfg).beta_bar, i % 3)


def test_record_contact_values_of_every_small_chain(contact_runs, small_chains):
    for i, lists in enumerate(small_chains):
        record = invariant_record(build_configuration(lists))
        assert_expansions_agree(contact_runs, record.beta_bar, i % 3)


@pytest.mark.parametrize("a", [3, 4, 5, 6])
@pytest.mark.parametrize("e", [0, 1, 2, 3])
def test_tono_prefixes(contact_runs, a, e):
    """The cusp's contact values (a^2 - a, a^2, a^3 + 2a + 1), followed by
    the family's (e + 1) a^4 - 2a^3 - 2a^2 - a free points."""
    prefix = (a * a - a, a * a, a**3 + 2 * a + 1)
    trailing = (e + 1) * a**4 - 2 * a**3 - 2 * a * a - a
    assert_expansions_agree(contact_runs, prefix, trailing)
