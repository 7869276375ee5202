"""The integer kernels of the file path against the forms they replaced.

``push_runs`` pushes an ``older`` array into runs in one backward pass, where
``value_runs(push_values(...))`` lists every value first.
``build_configuration`` compares sorted lists in place and sends every other
form (tuples, sets, unsorted or repeated targets) through its set-based
validation, with the same runs or the same message as before.
``run_structure`` consumes whole runs and raises the same three errors.  The
bounds take their ceilings by floor division, and the file verbs build a
``Fraction`` only for a number they print.
"""

import contextlib
import io
import json
import math
import random
from fractions import Fraction

import pytest

from valuation_lab.bounds import (
    _combinatorial_bound,
    _threshold_index,
    _threshold_term,
    ceil_div,
    ceil_plus,
)
from valuation_lab.checks import random_configuration, trial_rng
from valuation_lab.cli import main
from valuation_lab.configurations import (
    build_configuration,
    push_runs,
    push_values,
    run_structure,
    satellite_targets,
    value_runs,
)
from valuation_lab.errors import InvalidConfigurationError, ReconstructionError
from valuation_lab.invariants import invariant_record


def listed_runs(older):
    """The reference: list every value of the push, then group it into runs."""
    return value_runs(push_values(older, len(older) - 1)[1:])


def test_push_runs_on_every_small_chain(small_chains):
    for lists in small_chains:
        older = [0, *(t[0] if len(t) == 2 else 0 for t in lists)]
        assert push_runs(older) == listed_runs(older), lists


def test_push_runs_on_random_chains():
    """Seeded chains of up to 200 points, grown by Enriques' rule alone, with
    a satellite bias from 0.1 to 0.9."""
    rng = random.Random(20)
    for trial in range(300):
        n = rng.randint(1, 200)
        bias = 0.1 + 0.8 * (trial % 9) / 8
        older = [0] * (n + 1)
        for i in range(3, n + 1):
            if rng.random() < bias:
                older[i] = rng.choice(satellite_targets(i, older[i - 1]))
        assert push_runs(older) == listed_runs(older), older


# Outcomes of build_configuration on lists the in-place comparison does not
# accept, as the set-based validation gave them before that comparison.
BUILD_CASES = {
    "tuples": ([(), (1,), (1, 2), (1, 3), (4,)], ((3, 1), (1, 4))),
    "free tuples": (((), (1,), (2,)), ((1, 3),)),
    "sets": ([set(), {1}, {1, 2}, {3, 1}, {4}], ((3, 1), (1, 4))),
    "mixed": ([[], [1], (1, 2), {1, 3}, [4], (4, 5)], ((6, 1), (2, 3), (1, 2))),
    "unsorted": ([[], [1], [2, 1], [3, 1], [4]], ((3, 1), (1, 4))),
    "unsorted, inadmissible": (
        [[], [1], [2], [3, 1]],
        "p_4 claims proximity to p_1, but p_3 is not proximate to p_1 "
        "(its divisor no longer meets E_3)",
    ),
    "duplicate free targets": ([[], [1, 1], [2, 2, 2]], ((1, 3),)),
    "duplicate satellite targets": ([[], [1], [1, 2, 2, 1]], ((2, 1), (1, 2))),
    "duplicates of three targets": (
        [[], [1], [1, 2], [1, 2, 3, 3]],
        "p_4: a point is proximate to at most two points",
    ),
    "target after the point": (
        [[], [1], [3]], "p_3: proximity targets must be earlier points"
    ),
    "target 0": ([[], [1], [0, 2]], "p_3: proximity targets must be earlier points"),
    "negative target": (
        [[], [1], [-1, 2]], "p_3: proximity targets must be earlier points"
    ),
    "the point itself": (
        [[], [1], [2, 3]], "p_3: proximity targets must be earlier points"
    ),
    "satellite p_2": ([[], [0, 1]], "p_2: proximity targets must be earlier points"),
    "p_1 with a target": ([(1,)], "p_1 cannot be proximate to anything"),
    "no predecessor": ([[], [1], [1]], "p_3 must be proximate to p_2"),
}


@pytest.mark.parametrize("lists, expected", BUILD_CASES.values(), ids=BUILD_CASES)
def test_build_configuration_keeps_the_set_based_outcomes(lists, expected):
    if isinstance(expected, str):
        with pytest.raises(InvalidConfigurationError) as caught:
            build_configuration(lists)
        assert str(caught.value) == expected
    else:
        assert build_configuration(lists).runs == expected


@pytest.mark.parametrize(
    "runs, message",
    [
        (((2, 1), (1, 1)), "multiplicity 2 at position 1 cannot be matched by the "
                           "points that follow"),
        (((6, 1), (4, 1), (1, 1)), "multiplicity 6 at position 1 cannot be matched "
                                   "by the points that follow"),
        (((3, 1), (2, 2), (1, 1)), "multiplicities after position 1 overshoot the "
                                   "proximity equality (4 > 3)"),
        (((7, 1), (3, 3), (1, 1)), "multiplicities after position 1 overshoot the "
                                   "proximity equality (9 > 7)"),
        (((4, 1), (2, 1), (1, 2)), "p_4 would be proximate to three points"),
        (((2, 1),), "the last multiplicity is 2, not 1"),
    ],
)
def test_run_structure_keeps_its_messages(runs, message):
    with pytest.raises(ReconstructionError) as caught:
        run_structure(runs)
    assert str(caught.value) == message


def test_integer_ceilings_equal_their_fraction_forms():
    rng = random.Random(21)
    for _ in range(3000):
        a = rng.randint(-(10**6), 10**6) * rng.choice((1, 10**15))
        b = rng.randint(1, 10**4)
        assert ceil_div(a, b) == math.ceil(Fraction(a, b))
        assert ceil_plus(a, b) == max(math.ceil(Fraction(a, b)), 0)


def test_threshold_index_equals_the_ceiling_of_its_term():
    """delta0 by floor division against the ceiling of the Fraction term, on
    records whose threshold numerator is negative as often as not."""
    rng = random.Random(22)
    record = invariant_record(build_configuration([[], [1], [2, 1], [3]]))
    for _ in range(3000):
        b0, t = rng.randint(1, 500), rng.randint(1, 500)
        last = rng.randint(1, 4 * b0 * t)
        contact = record.contact._replace(beta_bar=(b0, b0 + t, last))
        other = record._replace(contact=contact, tangent_value=t)
        assert _threshold_index(other) == max(math.ceil(_threshold_term(other)), 0)


def combinatorial_by_fractions(b0, b1, last, p3_satellite):
    """The bound as it was written in Fraction arithmetic."""
    inverse_normalized_volume = Fraction(last, b0 * b0)
    shrink = Fraction(b0, b1)
    if p3_satellite:
        term = shrink * shrink * inverse_normalized_volume - 2 * shrink
        return -1 - max(math.ceil(term), 0)
    return min(
        1 - math.ceil(Fraction(b1, b0)),
        -1 - max(math.ceil(inverse_normalized_volume / 4 - 2 * shrink), 0),
    )


def test_combinatorial_bound_equals_its_fraction_form():
    rng = random.Random(23)
    chains = {
        True: build_configuration([[], [1], [1, 2]]),
        False: build_configuration([[], [1], [2]]),
    }
    for _ in range(3000):
        b0 = rng.randint(1, 300)
        b1 = rng.randint(b0, 4 * b0)
        last = rng.randint(1, 10 * b0 * b1)
        for p3_satellite, cfg in chains.items():
            assert _combinatorial_bound(cfg, (b0, b1, last)) == (
                combinatorial_by_fractions(b0, b1, last, p3_satellite)
            ), (b0, b1, last, p3_satellite)


@pytest.fixture
def fractions_built(monkeypatch):
    """The arguments of every Fraction constructed while the test runs."""
    built = []
    real = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    return built


@pytest.fixture(scope="module")
def mixed_file(tmp_path_factory):
    """A seeded file of 20 proximity chains of up to 200 points and four
    contact entries."""
    entries = []
    for trial in range(20):
        cfg = random_configuration(trial_rng(24, trial), 200)
        entries.append(
            {"proximity": cfg.proximity_lists(), "tangent_count": cfg.tangent_count}
        )
    for contact, trailing in (([4, 6, 13], 3), ([5, 7], 0), ([6, 9, 34], 6)):
        entries.append({"maximal_contact": contact, "trailing_free": trailing})
    entries.append({"maximal_contact": [20, 25, 136]})
    path = tmp_path_factory.mktemp("mixed") / "mixed.json"
    path.write_text(json.dumps({"valuations": entries}), encoding="utf-8")
    return str(path), len(entries)


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_file_verbs_build_only_the_fractions_they_print(
    fractions_built, mixed_file, fmt
):
    """``check`` builds no Fraction for a proximity or contact entry, and
    ``bounds`` one per entry: the degree bound it prints."""
    path, entries = mixed_file
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--format", fmt, "check", path]) == 0
    assert fractions_built == []
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--format", fmt, "bounds", path]) == 0
    assert len(fractions_built) == entries
