import pytest

from strategies import all_chains
from valuation_lab.checks import random_configuration, trial_rng

CORPUS_SEED = 1729
CORPUS_SIZE = 1000
CORPUS_MAX_POINTS = 12


@pytest.fixture(scope="session")
def fuzz_corpus():
    """The 1000-configuration corpus used by the acceptance criteria."""
    return [
        random_configuration(trial_rng(CORPUS_SEED, trial), CORPUS_MAX_POINTS)
        for trial in range(CORPUS_SIZE)
    ]


@pytest.fixture(scope="session")
def small_chains():
    """Every chain of at most 10 points, 2,585 of them, as sorted proximity
    lists, enumerated once for the exhaustive tests, which must not modify
    them."""
    return tuple(all_chains(10))
