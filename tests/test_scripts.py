"""Smoke tests for the scan scripts, run in-process with small arguments."""

import pathlib
import runpy
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, args, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out.splitlines()


def test_tono_scan(monkeypatch, capsys):
    args = ["--a-max", "4", "--e-max", "1"]
    lines = run_script("tono_scan.py", args, monkeypatch, capsys)
    header = lines[0].split()
    assert header[:4] == ["a", "e", "n", "mu_hat"]
    # One header, members a = 3, 4 and a blank line for each of e = 0, 1.
    assert len(lines) == 8
    assert lines[4] == lines[0]
    # tono(3, 0) has 17 points.
    assert lines[1].split()[:3] == ["3", "0", "17"]


def test_negativity_scan(monkeypatch, capsys):
    args = ["--trials", "50", "--max-points", "8"]
    lines = run_script("negativity_scan.py", args, monkeypatch, capsys)
    total, _, summary = lines[0].partition(" ")
    assert summary == "configurations with at least two points"
    assert 0 < int(total) <= 50
    assert any(line.startswith("largest improvement +") for line in lines)

