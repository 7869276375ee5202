"""No CLI verb leaves cyclic garbage: with the collector off, every object a
``cli.main`` call makes is freed by reference counting when the call returns,
so a ``gc.collect()`` after it finds nothing.  That is why ``main`` can pause
the cyclic collector for a command without holding more memory.

Three things are left to the collector, none of them by a verb:

* argparse's help formatters, once per process, when ``main`` first builds
  its shared parser; the parser is built before each call here;
* the closures of the standard library's indented JSON encoder, which
  ``valfile.serialize`` runs for ``family --emit``: that call leaves exactly
  what serializing the emitted file leaves;
* an argparse usage error, left out: argparse builds its message through
  objects that refer to one another, and the call exits before any verb runs.

With the collector on, ``main`` closes with one generation-1 collection.
Nothing is collected during the pause, so all three are still young then,
and a ``gc.collect()`` after the call finds nothing, on the first call in a
process too.
"""

import gc
import json
import subprocess
import sys

import pytest

from valuation_lab.checks import random_configuration, trial_rng
from valuation_lab.cli import _build_parser, main
from valuation_lab.valfile import parse_path, serialize

FORMATS = {"table": [], "json": ["--format", "json"]}
TONO = ["family", "tono", "--a", "4", "--e", "1"]


@pytest.fixture
def files(tmp_path):
    """A seeded proximity file, a malformed one and a path to emit to."""
    chains = [random_configuration(trial_rng(41, t), 60) for t in range(4)]
    entries = [
        {"proximity": cfg.proximity_lists(), "tangent_count": cfg.tangent_count}
        for cfg in chains
    ]
    seeded = tmp_path / "seeded.json"
    seeded.write_text(json.dumps({"valuations": entries}))
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"valuations": [{"proximity": [[], [1], [3, 2]]}]}')
    return {"seeded": seeded, "malformed": malformed, "emit": tmp_path / "tono.json"}


@pytest.fixture
def collector_off():
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


def calls():
    for fmt, flags in FORMATS.items():
        for verb in ("invariants", "bounds", "check"):
            yield f"{verb}-{fmt}", [*flags, verb, "{seeded}"], 0
            yield f"{verb}-{fmt}-malformed", [*flags, verb, "{malformed}"], 1
        yield f"family-{fmt}", [*flags, *TONO], 0
    yield "fuzz", ["fuzz", "--max-points", "12", "--trials", "20", "--seed", "1"], 0


CALLS = {name: (argv, code) for name, argv, code in calls()}


@pytest.mark.parametrize("argv, code", CALLS.values(), ids=CALLS)
def test_a_verb_leaves_no_cyclic_garbage(files, collector_off, capsys, argv, code):
    argv = [arg.format(**files) for arg in argv]
    _build_parser()
    gc.collect()
    assert main(argv) == code
    assert gc.collect() == 0


def test_family_emit_leaves_only_what_serializing_its_file_leaves(
    files, collector_off, capsys
):
    _build_parser()
    gc.collect()
    assert main([*TONO, "--emit", str(files["emit"])]) == 0
    left = gc.collect()
    emitted = parse_path(files["emit"])
    gc.collect()
    serialize(emitted)
    assert left == gc.collect()


@pytest.fixture
def collector_on():
    enabled = gc.isenabled()
    gc.enable()
    yield
    if not enabled:
        gc.disable()


ALL_CALLS = {
    **CALLS,
    "usage-error": (["frobnicate"], 1),
    "family-emit": ([*TONO, "--emit", "{emit}"], 0),
}


@pytest.mark.parametrize("argv, code", ALL_CALLS.values(), ids=ALL_CALLS)
def test_a_call_with_the_collector_on_leaves_nothing_to_collect(
    files, collector_on, capsys, argv, code
):
    argv = [arg.format(**files) for arg in argv]
    gc.collect()
    assert main(argv) == code
    assert gc.collect() == 0


def test_the_first_call_in_a_process_leaves_nothing_to_collect(files):
    """The shared parser is built on a process's first call, so only a fresh
    process shows that its help formatters are collected too."""
    code = (
        "import gc, sys\n"
        "from valuation_lab.cli import main\n"
        "gc.collect()\n"
        "code = main(sys.argv[1:])\n"
        "print(code, gc.collect(), gc.isenabled())\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *TONO, "--emit", str(files["emit"])],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.stdout.splitlines()[-1] == "0 0 True"
