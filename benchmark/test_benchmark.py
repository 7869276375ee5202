"""Self-tests of the benchmark: ``python3 -m pytest benchmark -q`` from the repo root."""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads

ROOT = run.ROOT
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
run.import_program()


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_the_metrics_the_runs_emit():
    listed = [w["name"] for w in BENCHMARK["workloads"]]
    assert listed == [w for w in workloads.WORKLOADS if w in listed] != []
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == tracer.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric(name, trace):
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", name, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    for printed in ("op_tail_s", "fail_ratio") if trace == 0 else ("fail_ratio",):
        assert re.search(rf"^{printed} ", proc.stdout, re.M)
    if trace and name == "tono-sweep":
        assert result["metrics"]["invariants.record_calls"]["value"] == 5
        assert result["metrics"]["invariants.multiplicity_calls"]["value"] == 22


def _corrupt(name: str, text: str) -> str:
    if name == "tono-sweep":  # one more than the first contact value
        return re.sub(r'("contact_values": \[\s*|contact values +)(\d+)',
                      lambda m: m.group(1) + str(int(m.group(2)) + 1), text)
    if name == "fuzz-small":
        return re.sub(r'("checks_failed": |checks failed: )0', r"\g<1>1", text)
    return text.replace("prox-1", "prox-9")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_checkers_accept_real_and_reject_corrupted_reports(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workload = workloads.build(name, 5, tiny=True)
    for path, text in workload.files.items():
        Path(path).write_text(text, encoding="utf-8")
    cli = sys.modules["valuation_lab.cli"]
    for op in workload.ops:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(op.argv))
        assert op.check(code, out.getvalue()) is None, op.label
        assert op.check(code, _corrupt(name, out.getvalue())) is not None, op.label
        assert op.check(1, out.getvalue()) is not None, op.label


class _CorruptJson:
    """Stands in for ``valuation_lab.cli``, corrupting every JSON report."""

    def __init__(self, name: str, cli) -> None:
        self.name, self.cli = name, cli

    def main(self, argv: list[str]) -> int:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(argv)
        text = out.getvalue()
        sys.stdout.write(_corrupt(self.name, text) if "json" in argv else text)
        return code


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_fail_ratio_counts_corrupted_reports(name, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    real = run.import_program
    monkeypatch.setattr(run, "import_program", lambda: _CorruptJson(name, real()))
    assert run.main(["--workload", name, "--seed", "2", "--seconds", "0", "--tiny"]) == 0
    result = _last_json(capsys.readouterr().out)
    assert not result["correct"]
    assert result["failed"] * 2 == result["attempted"]  # every JSON op, no table op


def test_seed_moves_fuzz_and_file_inputs_only():
    for name in workloads.WORKLOADS:
        a, b = workloads.build(name, 1), workloads.build(name, 2)
        assert workloads.build(name, 1).input_digest == a.input_digest
        assert (a.input_digest != b.input_digest) == (name != "tono-sweep"), name


def test_tono_descriptors_match_the_paper_sizes():
    w = workloads.build("tono-sweep", 0)
    points = sorted(workloads.tono_expected(a, e)["points"] for a, e in w.params["a_e"])
    assert (points[0], points[-1]) == (4961, 79226)
    assert w.descriptors["runs"] == 3 * 4 and w.descriptors["genus"] == 2 * 4


def test_tracer_restores_every_binding():
    import valuation_lab
    import valuation_lab.bounds as bounds

    before = (bounds.invariant_record, valuation_lab.invariant_record)
    spans = tracer.Tracer()
    spans.install()
    try:
        assert bounds.invariant_record is not before[0]
        assert valuation_lab.invariant_record is bounds.invariant_record
    finally:
        spans.uninstall()
    assert (bounds.invariant_record, valuation_lab.invariant_record) == before


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "fuzz-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
