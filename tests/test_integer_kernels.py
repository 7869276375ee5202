"""The integer kernels of the file path against the forms they replaced.

``push_runs`` pushes an ``older`` array into runs in one backward pass, where
``value_runs(push_values(...))`` lists every value first.
``build_configuration`` compares sorted lists in place and sends every other
form (tuples, sets, unsorted or repeated targets) through its set-based
validation, with the same runs or the same message as before.
``build_configuration`` takes a target only if it is an ``int`` (a bool is
not), ``Configuration`` takes a tangent count only if it is one, and
``valfile`` leaves both checks to the build, rescanning an entry only when
the build fails, so a file gets the message it got when every target was
checked before the build.  Every other parameter typed ``int``,
``int | None``, ``Sequence[int]`` or ``tuple[int, ...]`` of a callable in
the ``__all__`` of the math modules or ``checks`` follows the same rule:
``test_int_parameters_reject_non_ints`` reads those parameters from the
signatures, skipping only the NamedTuple result records, and puts what is
not an ``int`` into each.
``run_structure`` consumes whole runs and raises the same three errors.  The
bounds take their ceilings by floor division, the file verbs build a
``Fraction`` only for a number they print, and the invariants report
prints the exponents and volumes from integers, as ``str`` and ``float``
of those ``Fraction``s would.
"""

import contextlib
import importlib
import io
import json
import math
import random
import types
import typing
from collections.abc import Sequence
from fractions import Fraction

import pytest

from strategies import MATH_MODULES, continued_fraction
from valuation_lab.bounds import (
    _combinatorial_bound,
    _threshold_index,
    _threshold_term,
    ceil_div,
    ceil_plus,
)
from valuation_lab.bounds import tono_family, valuation_bundle
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
from valuation_lab.errors import (
    FileFormatError,
    InvalidConfigurationError,
    ReconstructionError,
)
from valuation_lab.invariants import invariant_record
from valuation_lab.reports import approx, invariants_payload
from valuation_lab.surface import AffinePolynomial
from valuation_lab.valfile import ValuationEntry, parse


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
        other = record._replace(beta_bar=(b0, b0 + t, last), tangent_value=t)
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
    """``check`` and ``invariants`` build no Fraction for a proximity or
    contact entry, and ``bounds`` one per entry: the degree bound it prints."""
    path, entries = mixed_file
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--format", fmt, "check", path]) == 0
        assert main(["--format", fmt, "invariants", path]) == 0
    assert fractions_built == []
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--format", fmt, "bounds", path]) == 0
    assert len(fractions_built) == entries


# Targets and tangent counts that are not ints, which the build once
# truncated with int(): [[], [1.5]] and [[], [True]] built a 2-point chain,
# and [[], [1.0], [1, 2.9]] a satellite at p_3.
NON_INT_TARGETS = {
    "float": ([[], [1.5]], "p_2"),
    "integral float": ([[], [1.0]], "p_2"),
    "string": ([[], ["1"]], "p_2"),
    "bool": ([[], [True]], "p_2"),
    "None": ([[], [None]], "p_2"),
    "float before a satellite": ([[], [1.0], [1, 2.9]], "p_2"),
    "integral float satellite": ([[], [1], [1, 2.0]], "p_3"),
    "bool satellite": ([[], [1], [True, 2]], "p_3"),
    "float in a tuple": ([(), (1,), (1.0, 2)], "p_3"),
    "bool in a set": ([set(), {1}, {2, True}], "p_3"),
}


@pytest.mark.parametrize(
    "lists, point", NON_INT_TARGETS.values(), ids=NON_INT_TARGETS
)
def test_build_configuration_rejects_targets_that_are_not_ints(lists, point):
    with pytest.raises(InvalidConfigurationError) as caught:
        build_configuration(lists)
    assert str(caught.value) == f"{point}: targets must be integers"


# One valid call, by keyword, of each callable the walk below finds, and the
# error class of its integer check.
CHAIN = build_configuration([[], [1], [2]])
BASE_CALLS = {
    "Configuration": (dict(runs=((1, 3),), tangent_count=2), InvalidConfigurationError),
    "build_configuration": (
        dict(proximity_lists=[[], [1], [2]], tangent_count=2),
        InvalidConfigurationError,
    ),
    "extend_with_satellite_tail": (
        dict(cfg=CHAIN, choices=[2]), InvalidConfigurationError
    ),
    "satellite_tail_comparison": (
        dict(cfg=CHAIN, choices=[2]), InvalidConfigurationError
    ),
    "from_maximal_contact": (
        dict(beta_bar=[2, 3], trailing_free=0), ReconstructionError
    ),
    "curvette_vector": (dict(cfg=CHAIN, k=2), ValueError),
    "noether_pairing": (dict(cfg=CHAIN, m=[1, 1, 1], m2=[1, 1, 1]), ValueError),
    "degree_lower_bound": (dict(cfg=CHAIN, m=[1, 1, 1]), ValueError),
    "supraminimal_certificate": (
        dict(cfg=CHAIN, curve_value=5, curve_degree=2), ValueError
    ),
    "multi_valuation": (
        dict(bundles=[valuation_bundle(CHAIN)], aligned_mu=2), ValueError
    ),
    "tono_family": (dict(a=3, e=0), ValueError),
    "HirzebruchClass": (dict(a=1, b=0, mults=(1,), delta=0), ValueError),
    "hirzebruch_class_of_polynomial": (
        dict(f=AffinePolynomial({(1, 0)}), delta=1), ValueError
    ),
    "lambda_divisor": (dict(cfg=CHAIN, delta=1), ValueError),
    "nef_on_generators": (dict(cfg=CHAIN, delta=1), ValueError),
    "npi_check": (dict(cfg=CHAIN, delta=1), ValueError),
    "random_configuration": (dict(rng=random.Random(0), max_points=3), ValueError),
    "random_tail_choices": (
        dict(cfg=CHAIN, length=2, rng=random.Random(0)), ValueError
    ),
    "trial_rng": (dict(seed=1, trial=0), ValueError),
    "fuzz": (dict(max_points=3, trials=1, seed=1), ValueError),
}


def checked_entry(hint):
    """"" for a hint of int or int | None, "[0]" for Sequence[int] or
    tuple[int, ...], None for any other hint."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint is int or (
        origin in (typing.Union, types.UnionType) and set(args) == {int, type(None)}
    ):
        return ""
    if origin in (Sequence, tuple) and args in ((int,), (int, ...)):
        return "[0]"
    return None


def int_parameters():
    """(callable, parameter, checked entry) for every int parameter of every
    callable in the ``__all__`` of the math modules and ``checks``.  The
    NamedTuple result records are skipped: their constructors check nothing,
    as they are built from checked inputs."""
    for module in sorted(MATH_MODULES | {"checks"}):
        exports = importlib.import_module(f"valuation_lab.{module}")
        for name in exports.__all__:
            target = getattr(exports, name)
            if not callable(target) or hasattr(target, "_fields"):
                continue
            hints = typing.get_type_hints(target)
            hints.pop("return", None)
            for param, hint in hints.items():
                entry = checked_entry(hint)
                if entry is not None:
                    yield target, param, entry


INT_PARAMETERS = list(int_parameters())
INT_CASES = [
    pytest.param(
        target, param, entry, value, id=f"{target.__name__}-{param}{entry}-{value!r}"
    )
    for target, param, entry in INT_PARAMETERS
    for value in (1.5, 1.0, True, "2")
]


@pytest.mark.parametrize("target, param, entry, value", INT_CASES)
def test_int_parameters_reject_non_ints(target, param, entry, value):
    name = target.__name__
    assert name in BASE_CALLS, f"{name} takes an int {param} but has no base call"
    arguments, error = BASE_CALLS[name]
    given = arguments[param]
    arguments = {**arguments, param: [value, *given[1:]] if entry else value}
    with pytest.raises(error) as caught:
        target(**arguments)
    assert type(caught.value) is error
    assert str(caught.value) == f"{param}{entry} must be an integer, got {value!r}"


def test_each_base_call_is_valid_and_walked():
    """A case fails only on the value it puts in, and no base call outlives
    its callable's int parameters."""
    walked = {target.__name__: target for target, _, _ in INT_PARAMETERS}
    assert set(BASE_CALLS) == set(walked)
    for name, (arguments, _) in BASE_CALLS.items():
        walked[name](**arguments)


# A proximity entry and the message that parse gives it: the first malformed
# part in file order (the lists, each target, then the tangent count), even
# when a structural error comes first.  Pinned from the code that checked
# every target before the build.
MALFORMED_PROXIMITY = {
    "bool": ([[], [True]], None, "proximity[1]: expected an integer, got True"),
    "bool satellite": (
        [[], [1], [True, 2]], None, "proximity[2]: expected an integer, got True"
    ),
    "float": ([[], [1.5]], None, "proximity[1]: expected an integer, got 1.5"),
    "integral float": (
        [[], [1.0], [1, 2.9]], None, "proximity[1]: expected an integer, got 1.0"
    ),
    "string": ([[], ["1"]], None, "proximity[1]: expected an integer, got '1'"),
    "null": ([[], [None]], None, "proximity[1]: expected an integer, got None"),
    "nested list": ([[], [[1]]], None, "proximity[1]: expected an integer, got [1]"),
    "float at p_1": ([[1.5]], None, "proximity[0]: expected an integer, got 1.5"),
    "zero": ([[], [1], [0, 2]], None, "proximity[2]: must be >= 1, got 0"),
    "non-list entry": (
        [[], 1], None, "proximity: expected a list of lists of integers"
    ),
    "string entry": (
        [[], "1"], None, "proximity: expected a list of lists of integers"
    ),
    "object entry": (
        [[], {"a": 1}], None, "proximity: expected a list of lists of integers"
    ),
    "null entry": (
        [[], [1], None], None, "proximity: expected a list of lists of integers"
    ),
    "number at p_1": ([5], None, "proximity: expected a list of lists of integers"),
    "non-list entry after a structural error": (
        [[], [5], 3], None, "proximity: expected a list of lists of integers"
    ),
    "object proximity": (
        {"a": 1}, None, "proximity: expected a list of lists of integers"
    ),
    "empty object proximity": (
        {}, None, "proximity: expected a list of lists of integers"
    ),
    "string proximity": (
        "abc", None, "proximity: expected a list of lists of integers"
    ),
    "number proximity": (3, None, "proximity: expected a list of lists of integers"),
    "float after a structural error": (
        [[], [5], [1.5]], None, "proximity[2]: expected an integer, got 1.5"
    ),
    "bool after a structural error": (
        [[], [1], [3], [2, True]], None, "proximity[3]: expected an integer, got True"
    ),
    "string count": (
        [[], [1], [2]], "2", "tangent_count: expected an integer, got '2'"
    ),
    "bool count": (
        [[], [1], [2]], True, "tangent_count: expected an integer, got True"
    ),
    "float count after a structural error": (
        [[], [5]], 2.0, "tangent_count: expected an integer, got 2.0"
    ),
    "list count after a structural error": (
        [[], [5]], [2], "tangent_count: expected an integer, got [2]"
    ),
    "zero count after a structural error": (
        [[], [5]], 0, "tangent_count: must be >= 1, got 0"
    ),
    "structural error": (
        [[], [5]], None, ": p_2: proximity targets must be earlier points"
    ),
    "count too large": (
        [[], [1], [2]], 4, ": tangent_count must lie in 2..3 for 3 points"
    ),
}


@pytest.mark.parametrize(
    "lists, count, message", MALFORMED_PROXIMITY.values(), ids=MALFORMED_PROXIMITY
)
def test_malformed_proximity_entries_keep_their_messages(
    tmp_path, capsys, lists, count, message
):
    """The second entry is malformed; parse and ``check`` name it alike, and
    ``check`` exits 1 with that one line."""
    entry = {"proximity": lists}
    if count is not None:
        entry["tangent_count"] = count
    text = json.dumps({"valuations": [{"proximity": [[], [1]]}, entry]})
    where = "valuations[1]" + ("" if message.startswith(":") else ".")
    with pytest.raises(FileFormatError) as caught:
        parse(text)
    assert str(caught.value) == where + message
    path = tmp_path / "malformed.json"
    path.write_text(text, encoding="utf-8")
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {where}{message}\n")


def rational_oracle(x: Fraction) -> dict:
    return {"exact": str(x), "approx": approx(float(x))}


def assert_payload_prints_the_record_fractions(bundle):
    """The exponents and volumes of the invariants report are ``str`` and
    ``float`` of the ``Fraction``s of the record's integers; the exponents are
    folded here from the run tables too, apart from the record's integer
    pairs."""
    record = bundle.record
    payload = invariants_payload(ValuationEntry({}, bundle))
    tables = record.run_length_tables
    exponents = [Fraction(1), *map(continued_fraction, tables)]
    assert [Fraction(p, q) for p, q in record.ratios] == exponents
    assert payload["puiseux_exponents"] == [rational_oracle(x) for x in exponents]
    assert payload["volume"] == rational_oracle(Fraction(1, record.beta_bar[-1]))
    assert payload["normalized_volume"] == rational_oracle(record.normalized_volume)


def test_payload_rationals_on_every_small_chain(small_chains):
    for lists in small_chains:
        assert_payload_prints_the_record_fractions(
            valuation_bundle(build_configuration(lists))
        )


def test_payload_rationals_on_the_fuzz_corpus(fuzz_corpus):
    for cfg in fuzz_corpus:
        assert_payload_prints_the_record_fractions(valuation_bundle(cfg))


@pytest.mark.parametrize("a", [3, 4, 5])
@pytest.mark.parametrize("e", [0, 1, 2, 3])
def test_payload_rationals_on_tono(a, e):
    assert_payload_prints_the_record_fractions(tono_family(a, e).bundle)


def test_normalized_volume_is_printed_reduced():
    """Tono (4, 1) has beta_bar_0^2 / beta_bar_last = 144/640 = 9/40."""
    bundle = tono_family(4, 1).bundle
    beta = bundle.record.beta_bar
    assert (beta[0] ** 2, beta[-1]) == (144, 640)
    payload = invariants_payload(ValuationEntry({}, bundle))
    assert payload["normalized_volume"] == {"exact": "9/40", "approx": 0.225}
    assert payload["volume"] == {"exact": "1/640", "approx": 0.0015625}


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_bounds_too_large_for_a_float_exits_1(tmp_path, capsys, fmt):
    path = tmp_path / "huge.json"
    contact = [10**310, 10**310 + 1]
    path.write_text(json.dumps({"valuations": [{"maximal_contact": contact}]}))
    assert main(["--format", fmt, "bounds", str(path)]) == 1
    assert capsys.readouterr() == (
        "", "error: integer division result too large for a float\n"
    )
