"""Build once, for the argument parser: ``cli.main`` builds the
``valuation-lab`` parser once per process, and each call parses with that
one parser into a new namespace.

The counter wraps ``argparse.ArgumentParser.__init__``. One parser tree is
the top-level parser and one subparser per verb.
"""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import valuation_lab
from valuation_lab.cli import main

CHAIN = '{"valuations": [{"maximal_contact": [2, 7]}]}'
TREE = 6  # the top-level parser and its five subparsers
TONO = ["family", "tono", "--a", "3", "--e", "0"]
# ``--timestamps`` reports the time of the call; compare the rest.
TIMESTAMP = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d(\.\d+)?\+00:00")


def verb_calls(path):
    return [
        ["invariants", path],
        ["--format", "json", "bounds", path],
        ["check", path],
        TONO,
        ["fuzz", "--max-points", "5", "--trials", "2", "--seed", "1"],
    ]


def test_the_parser_is_built_once(tmp_path, monkeypatch, capsys):
    path = tmp_path / "chain.json"
    path.write_text(CHAIN)
    built, parsed = [], []
    real_init = argparse.ArgumentParser.__init__
    real_parse = argparse.ArgumentParser.parse_args

    def counted_init(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    def recorded_parse(self, *args, **kwargs):
        parsed.append(self)
        return real_parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recorded_parse)
    for _ in range(2):
        for argv in verb_calls(str(path)):
            assert main(argv) == 0
    # None when an earlier call in this process built the tree already.
    assert len(built) in (0, TREE)
    top = [p for p in parsed if p.prog == "valuation-lab"]
    assert len(top) == 10
    assert all(p is top[0] for p in top)


def fresh_process(argv):
    done = subprocess.run(
        [sys.executable, "-m", "valuation_lab", *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


def without_time(call):
    code, out, err = call
    return code, TIMESTAMP.sub("<time>", out), err


def test_the_shared_parser_keeps_no_state_between_calls(
    tmp_path, monkeypatch, capsys
):
    # The help layout follows the terminal width; fix it for both sides.
    monkeypatch.setenv("COLUMNS", "80")
    src = str(Path(valuation_lab.__file__).resolve().parents[1])
    monkeypatch.setenv(
        "PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    )
    path = tmp_path / "chain.json"
    path.write_text(CHAIN)
    emitted = tmp_path / "emitted.json"
    emit = [*TONO, "--emit", str(emitted)]
    sequence = [
        ["family", "tono", "--a", "x", "--e", "1"],
        ["frobnicate"],
        ["--help"],
        ["family", "--help"],
        ["--timestamps", "--format", "json", *TONO],
        emit,
        TONO,
        ["family", "tono", "--a", "3"],
        ["invariants", str(path)],
        ["check"],
        ["--format", "json", "bounds", str(path)],
    ]

    in_process, emitted_text = [], None
    for argv in sequence:
        code = main(argv)
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
        if argv is emit:
            emitted_text = emitted.read_text()
            emitted.unlink()
        assert not emitted.exists(), argv
    assert [code for code, _, _ in in_process] == [1, 1, 0, 0, 0, 0, 0, 1, 0, 1, 0]

    for argv, call in zip(sequence, in_process):
        assert without_time(call) == without_time(fresh_process(argv)), argv
        if argv is emit:
            assert emitted.read_text() == emitted_text
            emitted.unlink()
