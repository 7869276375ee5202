import json
import subprocess
import sys

import pytest

import valuation_lab.checks as checks
from valuation_lab.checks import CheckResult
from valuation_lab.cli import main
from valuation_lab.errors import FileFormatError
from valuation_lab.valfile import parse, parse_path, serialize

THREE_POINT = '{"valuations": [{"proximity": [[], [1], [2, 1]]}]}'
TONO = '{"valuations": [{"tono": {"a": 3, "e": 0}}]}'


def write(tmp_path, text, name="valuations.json"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestParse:
    def test_proximity_entry(self):
        vf = parse(THREE_POINT)
        assert len(vf.entries) == 1
        assert vf.entries[0].configuration.size == 3
        assert vf.aligned_mu is None

    def test_tono_entry(self):
        vf = parse(TONO)
        cfg = vf.entries[0].configuration
        assert cfg.size == 17
        assert cfg.name == "tono-a3-e0"

    def test_maximal_contact_entry(self):
        vf = parse(
            '{"valuations": [{"maximal_contact": [6, 9, 34], "trailing_free": 6}]}'
        )
        assert vf.entries[0].configuration.size == 17

    def test_aligned_mu(self):
        vf = parse(
            '{"valuations": [{"proximity": [[], [1]]}], "aligned_mu": 4}'
        )
        assert vf.aligned_mu == 4

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[1, 2]",
            '{"valuations": []}',
            '{"valuations": [{}]}',
            '{"valuations": [{"proximity": [[], [2]]}]}',
            '{"valuations": [{"proximity": [[], [1]], "tono": {"a": 3, "e": 0}}]}',
            '{"valuations": [{"tono": {"a": 2, "e": 0}}]}',
            '{"valuations": [{"tono": {"a": 3}}]}',
            '{"valuations": [{"maximal_contact": [4, 6]}]}',
            '{"valuations": [{"proximity": [[], [1]], "trailing_free": 2}]}',
            '{"valuations": [{"proximity": [[], [1]]}], "aligned_mu": 0}',
            '{"valuations": [{"proximity": [[], [1]]}], "extra": 1}',
            '{"valuations": [{"proximity": [[], [1]], "unknown": true}]}',
            '{"valuations": [{"proximity": [[], [1]], "tangent_count": 1}]}',
            '{"valuations": [{"name": 7, "proximity": [[], [1]]}]}',
        ],
    )
    def test_rejects_malformed_files(self, text):
        with pytest.raises(FileFormatError):
            parse(text)

    def test_json_error_carries_line_number(self):
        with pytest.raises(FileFormatError, match="line"):
            parse('{"valuations": [\n  {"proximity": }\n]}')

    def test_serialize_round_trip(self):
        text = (
            '{"valuations": [{"name": "x", "proximity": [[], [1], [2]],'
            ' "tangent_count": 3},'
            ' {"maximal_contact": [2, 3, 6]},'
            ' {"tono": {"a": 3, "e": 0}}],'
            ' "aligned_mu": 3}'
        )
        vf = parse(text)
        again = parse(serialize(vf))
        assert again == vf
        assert serialize(again) == serialize(vf)


class TestCommands:
    def test_invariants_json(self, tmp_path, capsys):
        path = write(tmp_path, TONO)
        assert main(["--format", "json", "invariants", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        val = payload["valuations"][0]
        assert val["contact_values"] == [6, 9, 34, 108]
        assert val["tangent_value"] == 9
        assert val["delta0"] == 0
        assert val["satellites"] == [3, 10, 11]

    def test_bounds_json(self, tmp_path, capsys):
        path = write(tmp_path, '{"valuations": [{"tono": {"a": 4, "e": 1}}]}')
        assert main(["--format", "json", "bounds", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        val = payload["valuations"][0]
        assert val["mu_hat_upper_bound"]["value"] == 44
        assert payload["ensemble"]["lambda_lower_bound"] == -2

    def test_degree_bound_rendering(self, tmp_path, capsys):
        path = write(tmp_path, TONO)
        assert main(["--format", "json", "bounds", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        entry = payload["valuations"][0]["degree_bound"]["value"]
        assert entry == {"exact": "36/5", "approx": 7.2}

    def test_check_passes_on_valid_file(self, tmp_path, capsys):
        path = write(tmp_path, THREE_POINT)
        assert main(["check", path]) == 0
        out = capsys.readouterr().out
        assert "failed: 0" in out

    def test_check_exit_two_on_failure(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, THREE_POINT)

        def broken(cfg, deltas=checks.NEF_DELTAS):
            return [CheckResult("injected", False, "synthetic failure")]

        monkeypatch.setattr(checks, "identity_checks", broken)
        assert main(["check", path]) == 2
        assert "FAIL" in capsys.readouterr().out

    def test_invalid_file_exits_one(self, tmp_path, capsys):
        path = write(tmp_path, '{"valuations": [{"proximity": [[], [2]]}]}')
        assert main(["invariants", path]) == 1
        assert "error:" in capsys.readouterr().err

    def test_deeply_nested_file_exits_one(self, tmp_path, capsys):
        depth = 100_000
        path = write(tmp_path, "[" * depth + "]" * depth)
        assert main(["invariants", path]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_file_exits_one(self, capsys):
        assert main(["invariants", "/does/not/exist.json"]) == 1

    def test_usage_error_exits_one(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_family_emit_round_trips(self, tmp_path, capsys):
        emitted = tmp_path / "tono.json"
        assert (
            main(["family", "tono", "--a", "3", "--e", "0", "--emit", str(emitted)])
            == 0
        )
        capsys.readouterr()
        vf = parse_path(emitted)
        assert vf.entries[0].kind == "tono"
        assert main(["invariants", str(emitted)]) == 0

    def test_family_table_mentions_certificate(self, capsys):
        assert main(["family", "tono", "--a", "4", "--e", "1"]) == 0
        out = capsys.readouterr().out
        assert "640/17" in out
        assert "44" in out

    def test_fuzz_exit_zero_and_summary(self, capsys):
        assert main(
            ["--format", "json", "fuzz", "--max-points", "6", "--trials", "20",
             "--seed", "5"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["checks_failed"] == 0
        assert payload["first_failure"] is None

    def test_fuzz_exit_two_on_finding(self, capsys, monkeypatch):
        def broken(cfg, deltas=checks.NEF_DELTAS):
            return [CheckResult("injected", False, "synthetic")]

        monkeypatch.setattr(checks, "identity_checks", broken)
        assert main(["fuzz", "--max-points", "4", "--trials", "3", "--seed", "1"]) == 2


# 10**12 free points: one multiplicity run, t = 2 and beta_bar = (1, 10**12).
HUGE = '{"valuations": [{"maximal_contact": [1, 1000000000000]}]}'


class TestChainsTooLongToList:
    @pytest.mark.parametrize("command", ["invariants", "check"])
    def test_listing_commands_exit_one(self, tmp_path, capsys, command):
        path = write(tmp_path, HUGE)
        assert main([command, path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "1000000000000 points" in captured.err
        assert "Traceback" not in captured.err

    def test_bounds_need_no_points(self, tmp_path, capsys):
        path = write(tmp_path, HUGE)
        assert main(["--format", "json", "bounds", path]) == 0
        val = json.loads(capsys.readouterr().out)["valuations"][0]
        # delta0 = ceil((10**12 - 2*1*2) / 2**2); mu-hat bound = 1 + (1 + delta0) * 2.
        assert val["points"] == 10**12
        assert val["delta0"] == 249999999999
        assert val["mu_hat_upper_bound"]["value"] == 500000000001
        assert val["degree_bound"]["value"]["exact"] == "1000000000000/500000000001"
        # min(1 - ceil(10**12 / 1), -1 - ceil(10**12 / 4 - 2 / 10**12))
        assert val["combinatorial_lambda_bound"]["value"] == -999999999999

    def test_bounds_of_a_multi_block_chain(self, tmp_path, capsys):
        path = write(
            tmp_path, '{"valuations": [{"maximal_contact": [4, 6, 1000000011]}]}'
        )
        assert main(["--format", "json", "bounds", path]) == 0
        val = json.loads(capsys.readouterr().out)["valuations"][0]
        # Runs (4, 1), (2, 500000001), (1, 2); t = 4 + 2 and
        # beta_bar_last = 16 + 500000001 * 4 + 2 = 2000000022, so
        # delta0 = ceil((2000000022 - 2 * 4 * 6) / 6**2) = 55555555.
        assert val["points"] == 500000004
        assert val["delta0"] == 55555555

    @pytest.mark.parametrize("exc", [MemoryError(), RecursionError("too deep")])
    def test_resource_errors_exit_one(self, tmp_path, capsys, monkeypatch, exc):
        def exhausted(cfg, deltas=checks.NEF_DELTAS):
            raise exc

        monkeypatch.setattr(checks, "identity_checks", exhausted)
        assert main(["check", write(tmp_path, THREE_POINT)]) == 1
        assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", "FILE"],
        ["bounds", "FILE"],
        ["check", "FILE"],
        ["family", "tono", "--a", "3", "--e", "0"],
        ["fuzz", "--max-points", "4", "--trials", "3", "--seed", "1"],
    ],
)
def test_json_output_renders_no_table(tmp_path, capsys, monkeypatch, argv):
    import valuation_lab.cli as cli

    def unwanted(payload):
        raise AssertionError("a table was rendered for --format json")

    for name in vars(cli).copy():
        if name.startswith("render_") and name.endswith("_table"):
            monkeypatch.setattr(cli, name, unwanted)
    path = write(tmp_path, THREE_POINT)
    argv = [path if arg == "FILE" else arg for arg in argv]
    assert main(["--format", "json", *argv]) == 0
    json.loads(capsys.readouterr().out)


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_reports_are_byte_identical(self, tmp_path, capsys, fmt):
        path = write(tmp_path, TONO)
        assert main(["--format", fmt, "invariants", path]) == 0
        first = capsys.readouterr().out
        assert main(["--format", fmt, "invariants", path]) == 0
        second = capsys.readouterr().out
        assert first.encode() == second.encode()

    def test_fuzz_summaries_are_byte_identical(self, capsys):
        argv = ["--format", "json", "fuzz", "--max-points", "8", "--trials", "30",
                "--seed", "9"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert first == capsys.readouterr().out

    def test_timestamp_flag_adds_a_timestamp(self, tmp_path, capsys):
        path = write(tmp_path, THREE_POINT)
        assert main(["--timestamps", "--format", "json", "invariants", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "generated_at" in payload
        assert main(["--format", "json", "invariants", path]) == 0
        assert "generated_at" not in json.loads(capsys.readouterr().out)


def test_module_entry_point(tmp_path):
    path = write(tmp_path, THREE_POINT)
    result = subprocess.run(
        [sys.executable, "-m", "valuation_lab", "--format", "json",
         "invariants", path],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["valuations"][0]["contact_values"] == [2, 3, 6]
