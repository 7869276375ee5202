import gc
import io
import json
import os
import subprocess
import sys
import threading
from datetime import datetime
from types import SimpleNamespace

import pytest

from strategies import rebind
import valuation_lab.checks as checks
import valuation_lab.cli as cli
import valuation_lab.configurations as configurations
import valuation_lab.valfile as valfile
from valuation_lab.bounds import tono_family
from valuation_lab.checks import CheckResult
from valuation_lab.cli import main
from valuation_lab.errors import FileFormatError
from valuation_lab.valfile import parse, parse_path, serialize

THREE_POINT = '{"valuations": [{"proximity": [[], [1], [2, 1]]}]}'
# Null values and a trailing_free of 0, which no verb minds and serialize drops.
NULL_VALUES = (
    '{"valuations": [{"name": "p", "proximity": [[], [1], [2, 1]],'
    ' "tangent_count": null}, {"maximal_contact": [2, 3], "trailing_free": 0},'
    ' {"tono": {"a": 3, "e": 0}}]}'
)
TONO = '{"valuations": [{"tono": {"a": 3, "e": 0}}]}'
# What `family tono --a 4 --e 1 --emit` writes, byte for byte.
EMITTED_TONO_4_1 = """\
{
  "valuations": [
    {
      "name": "tono-a4-e1",
      "tono": {
        "a": 4,
        "e": 1
      }
    }
  ]
}
"""


def write(tmp_path, text, name="valuations.json"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def feed_fifo(path, data):
    """Write ``data`` into the named pipe at ``path`` from a daemon thread."""

    def run():
        try:
            with open(path, "wb") as pipe:
                pipe.write(data)
        except BrokenPipeError:
            pass  # the reader closed its end once it had what it reads

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


@pytest.fixture
def decoded(monkeypatch):
    """Every text that ``valfile.parse`` decodes, in call order."""
    texts = []
    real_parse = valfile.parse

    def counted(text):
        texts.append(text)
        return real_parse(text)

    monkeypatch.setattr(valfile, "parse", counted)
    return texts


class TestParse:
    def test_proximity_entry(self):
        vf = parse(THREE_POINT)
        assert len(vf.entries) == 1
        assert vf.entries[0].bundle.cfg.size == 3
        assert vf.aligned_mu is None

    def test_tono_entry(self):
        (entry,) = parse(TONO).entries
        assert entry.bundle.cfg.size == 17
        assert entry.name == "tono-a3-e0"

    def test_maximal_contact_entry(self):
        vf = parse(
            '{"valuations": [{"maximal_contact": [6, 9, 34], "trailing_free": 6}]}'
        )
        assert vf.entries[0].bundle.cfg.size == 17

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
            '{"valuations": [3]}',
            '{"valuations": [{"maximal_contact": 5}]}',
        ],
    )
    def test_rejects_malformed_files(self, text):
        with pytest.raises(FileFormatError):
            parse(text)

    @pytest.mark.parametrize(
        "target, message",
        [
            ("true", "expected an integer, got True"),
            ("0", "must be >= 1, got 0"),
            ("2.5", "expected an integer, got 2.5"),
            ('"3"', "expected an integer, got '3'"),
        ],
    )
    def test_bad_proximity_target_is_named_by_its_point(self, target, message):
        text = '{"valuations": [{"proximity": [[], [1], [%s, 2]]}]}' % target
        with pytest.raises(FileFormatError) as info:
            parse(text)
        assert str(info.value) == f"valuations[0].proximity[2]: {message}"

    def test_json_error_carries_line_number(self):
        with pytest.raises(FileFormatError, match="line"):
            parse('{"valuations": [\n  {"proximity": }\n]}')

    def test_serialize_round_trip(self):
        text = (
            '{"valuations": [{"name": "x", "proximity": [[], [1], [2]],'
            ' "tangent_count": 3},'
            ' {"maximal_contact": [2, 3, 6]},'
            ' {"tono": {"a": 3, "e": 0}},'
            ' {"name": "t", "tono": {"a": 4, "e": 1}},'
            ' {"maximal_contact": [4, 6, 13], "trailing_free": 3}],'
            ' "aligned_mu": 3}'
        )
        vf = parse(text)
        again = parse(serialize(vf))
        assert again == vf
        assert serialize(again) == serialize(vf)
        # Each payload is the entry as written, name included; an unnamed
        # tono entry is named after its family member but writes no name.
        assert [entry.payload for entry in again.entries] == json.loads(text)[
            "valuations"
        ]
        assert [entry.name for entry in again.entries] == [
            "x", None, "tono-a3-e0", "t", None
        ]
        # Null values and a trailing_free of 0 are dropped from the payload,
        # so they are not written back.
        text = (
            '{"valuations": [{"name": null, "proximity": [[], [1], [2, 1]],'
            ' "tangent_count": null},'
            ' {"maximal_contact": [2, 3], "trailing_free": 0},'
            ' {"name": null, "tono": {"e": 0, "a": 3}},'
            ' {"maximal_contact": [2, 3], "trailing_free": null}]}'
        )
        vf = parse(text)
        assert [entry.payload for entry in vf.entries] == [
            {"proximity": [[], [1], [2, 1]]},
            {"maximal_contact": [2, 3]},
            {"tono": {"a": 3, "e": 0}},
            {"maximal_contact": [2, 3]},
        ]
        assert [entry.name for entry in vf.entries] == [
            None, None, "tono-a3-e0", None
        ]
        assert serialize(vf) == (
            '{\n  "valuations": [\n'
            '    {\n      "proximity": [\n        [],\n        [\n          1\n'
            '        ],\n        [\n          2,\n          1\n        ]\n'
            '      ]\n    },\n'
            '    {\n      "maximal_contact": [\n        2,\n        3\n      ]\n'
            '    },\n'
            '    {\n      "tono": {\n        "a": 3,\n        "e": 0\n      }\n'
            '    },\n'
            '    {\n      "maximal_contact": [\n        2,\n        3\n      ]\n'
            '    }\n  ]\n}\n'
        )
        assert parse(serialize(vf)) == vf


class TestCommands:
    def test_invariants_json(self, tmp_path, capsys):
        path = write(tmp_path, TONO)
        assert main(["--format", "json", "invariants", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        val = payload["valuations"][0]
        assert val["contact_values"] == [6, 9, 34, 108]
        assert val["tangent_value"] == 9
        assert val["delta0"] == 0
        # Runs (6, 1), (3, 7), (1, 9): p_3 is the satellite closing
        # 6 = 3 + 3 at p_1, and p_10, p_11 close 3 = 1 + 1 + 1 at p_8.
        assert val["multiplicity_runs"] == [[6, 1], [3, 7], [1, 9]]
        assert val["satellite_stretches"] == [[3, 3, 1], [10, 11, 8]]

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

        def broken(bundle):
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

    def test_file_above_the_size_limit_exits_one_undecoded(
        self, tmp_path, monkeypatch, capsys, decoded
    ):
        path = write(tmp_path, THREE_POINT)
        size = len(THREE_POINT.encode("utf-8"))
        monkeypatch.setattr(valfile, "MAX_FILE_BYTES", size - 1)
        assert main(["invariants", path]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: {size} bytes is above the limit of {size - 1} bytes\n"
        )
        assert decoded == []
        # A file of exactly the limit is read.
        monkeypatch.setattr(valfile, "MAX_FILE_BYTES", size)
        assert main(["invariants", path]) == 0
        assert decoded == [THREE_POINT]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_above_the_size_limit_exits_one_undecoded(
        self, tmp_path, monkeypatch, capsys, decoded
    ):
        """A pipe states no size, so the limit bounds the bytes read."""
        fifo = tmp_path / "valuations.fifo"
        os.mkfifo(fifo)
        size = len(THREE_POINT.encode("utf-8"))
        monkeypatch.setattr(valfile, "MAX_FILE_BYTES", size - 10)
        feeder = feed_fifo(fifo, THREE_POINT.encode("utf-8"))
        assert main(["invariants", str(fifo)]) == 1
        feeder.join(timeout=10)
        assert capsys.readouterr().err == (
            f"error: {fifo}: more than {size - 10} bytes is above the limit of "
            f"{size - 10} bytes\n"
        )
        assert decoded == []
        # A pipe of exactly the limit is read.
        monkeypatch.setattr(valfile, "MAX_FILE_BYTES", size)
        feeder = feed_fifo(fifo, THREE_POINT.encode("utf-8"))
        assert main(["invariants", str(fifo)]) == 0
        feeder.join(timeout=10)
        assert decoded == [THREE_POINT]

    def test_regular_file_is_read_at_its_stated_size(self, tmp_path, monkeypatch):
        """One read of the stated size plus one byte, not one of the limit."""
        path = write(tmp_path, THREE_POINT)
        requested = []

        class Recorded(io.BufferedReader):
            def read(self, size=-1):
                requested.append(size)
                return super().read(size)

        monkeypatch.setattr(
            valfile, "open", lambda p, mode: Recorded(io.FileIO(p, mode)), raising=False
        )
        assert parse_path(path) == parse(THREE_POINT)
        assert requested == [len(THREE_POINT.encode("utf-8")) + 1]

    @pytest.mark.parametrize("stated", [0, 1, 20])
    def test_file_longer_than_its_stated_size_is_bounded_by_the_limit(
        self, tmp_path, monkeypatch, capsys, decoded, stated
    ):
        """A file that grew after its size was stated is refused past the
        limit and read whole within it: the stated size sizes the first read."""
        path = write(tmp_path, THREE_POINT)
        size = len(THREE_POINT.encode("utf-8"))
        stat = SimpleNamespace(st_size=stated)
        monkeypatch.setattr(valfile, "os", SimpleNamespace(fstat=lambda fd: stat))
        monkeypatch.setattr(valfile, "MAX_FILE_BYTES", size - 1)
        assert main(["invariants", path]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: more than {size - 1} bytes is above the limit of "
            f"{size - 1} bytes\n"
        )
        assert decoded == []
        monkeypatch.setattr(valfile, "MAX_FILE_BYTES", size)
        assert main(["invariants", path]) == 0
        assert decoded == [THREE_POINT]

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
        assert vf.entries[0].bundle == tono_family(3, 0).bundle
        assert main(["invariants", str(emitted)]) == 0

    def test_family_emit_writes_the_pinned_file(self, tmp_path, capsys):
        emitted = tmp_path / "tono.json"
        argv = ["family", "tono", "--a", "4", "--e", "1", "--emit", str(emitted)]
        assert main(argv) == 0
        text = emitted.read_text(encoding="utf-8")
        assert text == EMITTED_TONO_4_1
        assert serialize(parse(text)) == text
        assert parse(text).entries[0].bundle == tono_family(4, 1).bundle
        capsys.readouterr()
        assert main(["check", str(emitted)]) == 0
        assert capsys.readouterr().out.endswith("checks run: 6, failed: 0\n")

    @pytest.mark.parametrize("emit", ["", "{tmp}/missing/tono.json"])
    def test_family_emit_to_an_unwritable_path_exits_one(self, tmp_path, capsys, emit):
        """An empty path is refused by ``open`` like any path that cannot be
        written: exit 1 with its error line, and nothing on stdout."""
        path = emit.format(tmp=tmp_path)
        with pytest.raises(OSError) as refused:
            open(path, "w", encoding="utf-8")
        assert main(["family", "tono", "--a", "3", "--e", "0", "--emit", path]) == 1
        assert capsys.readouterr() == ("", f"error: {refused.value}\n")

    def test_null_values_pass_every_file_verb_and_are_not_written_back(
        self, tmp_path, capsys
    ):
        path = write(tmp_path, NULL_VALUES)
        for fmt in ("table", "json"):
            assert main(["--format", fmt, "invariants", path]) == 0
            assert main(["--format", fmt, "bounds", path]) == 0
            capsys.readouterr()
            assert main(["--format", fmt, "check", path]) == 0
            out = capsys.readouterr().out
            if fmt == "table":
                assert out.endswith("checks run: 18, failed: 0\n")
            else:
                summary = json.loads(out)["summary"]
                assert summary == {"checks_run": 18, "checks_failed": 0}
        written = "".join(serialize(parse(NULL_VALUES)).split())
        assert written == (
            '{"valuations":[{"name":"p","proximity":[[],[1],[2,1]]},'
            '{"maximal_contact":[2,3]},{"tono":{"a":3,"e":0}}]}'
        )

    def test_bounds_needs_aligned_mu_two_for_two_points(self, tmp_path, capsys):
        path = write(
            tmp_path,
            '{"valuations": [{"proximity": [[]]}, {"proximity": [[]]}],'
            ' "aligned_mu": 1}',
        )
        assert main(["bounds", path]) == 1
        assert capsys.readouterr() == (
            "", "error: aligned_mu must be at least 2 once two points exist\n"
        )

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
        def broken(bundle):
            return [CheckResult("injected", False, "synthetic")]

        monkeypatch.setattr(checks, "identity_checks", broken)
        assert main(["fuzz", "--max-points", "4", "--trials", "3", "--seed", "1"]) == 2

    def test_fuzz_max_points_above_the_listing_limit_exits_one(
        self, capsys, monkeypatch
    ):
        monkeypatch.setattr(configurations, "MAX_LISTED_POINTS", 50)
        assert main(["fuzz", "--max-points", "51", "--trials", "1", "--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    def test_check_of_a_long_chain(self, tmp_path, capsys):
        path = write(tmp_path, '{"valuations": [{"maximal_contact": [1, 10000]}]}')
        assert main(["check", path]) == 0
        assert capsys.readouterr().out.rstrip().endswith("checks run: 5, failed: 0")


# 10**12 free points: one multiplicity run, t = 2 and beta_bar = (1, 10**12).
HUGE = '{"valuations": [{"maximal_contact": [1, 1000000000000]}]}'


class TestChainsTooLongToList:
    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_check_needs_no_points(self, tmp_path, capsys, fmt):
        # (entries, rows): a free chain of 10**12 points; 10**12 points of
        # multiplicity 2 closed by one satellite, with no free tail; 10**12 - 1
        # satellites proximate to p_1; the paper's tono (40, 3), 10,108,882
        # points.  The last three have a satellite, so first-puiseux-ratio runs.
        # Then the six entries of the CI long-chains step: two free chains of
        # five rows and four chains with a satellite of six rows each.
        cases = [
            ('{"maximal_contact": [1, 1000000000000]}', 5),
            ('{"maximal_contact": [2, 2000000000001]}', 6),
            ('{"maximal_contact": [1000000000000, 1000000000001]}', 6),
            ('{"tono": {"a": 40, "e": 3}}', 6),
            (
                '{"maximal_contact": [1, 100000]}, {"maximal_contact": [2, 200001]},'
                ' {"tono": {"a": 12, "e": 3}}, {"tono": {"a": 20, "e": 3}},'
                ' {"tono": {"a": 40, "e": 3}}, {"maximal_contact": [1, 1000000000000]}',
                34,
            ),
        ]
        for entry, rows in cases:
            path = write(tmp_path, f'{{"valuations": [{entry}]}}')
            assert main(["--format", fmt, "check", path]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            if fmt == "table":
                assert captured.out.endswith(f"checks run: {rows}, failed: 0\n")
            else:
                summary = json.loads(captured.out)["summary"]
                assert (summary["checks_run"], summary["checks_failed"]) == (rows, 0)

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_invariants_need_no_points(self, tmp_path, capsys, fmt):
        path = write(tmp_path, HUGE)
        assert main(["--format", fmt, "invariants", path]) == 0
        out = capsys.readouterr().out
        if fmt == "table":
            assert "  multiplicities     1x1000000000000\n" in out
            assert "  satellites         none\n" in out
        else:
            val = json.loads(out)["valuations"][0]
            assert val["points"] == 10**12
            assert val["multiplicity_runs"] == [[1, 10**12]]
            assert val["satellite_stretches"] == []

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_family_needs_no_points(self, capsys, fmt):
        # a = 1000: runs (999000, 1), (1000, 2001), (1, 997998000000), so
        # about 10**12 points.  p_2..p_1000 close 999000 at p_1 and
        # p_2003..p_3002 close 1000 at p_2002, the end of the second run.
        argv = ["--format", fmt, "family", "tono", "--a", "1000", "--e", "0"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        if fmt == "table":
            assert "  multiplicities     999000 1000x2001 1x997998000000\n" in out
        else:
            val = json.loads(out)["valuations"][0]
            assert val["points"] == 997998002002
            runs = [[999000, 1], [1000, 2001], [1, 997998000000]]
            assert val["multiplicity_runs"] == runs
            assert val["satellite_stretches"] == [[3, 1000, 1], [2004, 3002, 2002]]

    def test_satellite_row_prints_stretches(self, tmp_path, capsys):
        # Runs (10**12, 1), (1, 10**12): p_3..p_{10**12 + 1} are satellites
        # proximate to p_1, one stretch of 10**12 - 1 points; tono (4, 1) has
        # two stretches and [2, 5] one satellite, p_4.
        cases = [
            ('{"maximal_contact": [1000000000000, 1000000000001]}', "3-1000000000001"),
            ('{"tono": {"a": 4, "e": 1}}', "3-4 12-14"),
            ('{"maximal_contact": [2, 5]}', "4"),
        ]
        for entry, row in cases:
            path = write(tmp_path, f'{{"valuations": [{entry}]}}')
            assert main(["invariants", path]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            assert f"\n  satellites         {row}\n" in captured.out

    def test_satellite_row_ignores_a_patched_limit(self, tmp_path, capsys, monkeypatch):
        # Runs (12, 1), (1, 12): p_3..p_13 are satellites proximate to p_1.
        monkeypatch.setattr(configurations, "MAX_LISTED_POINTS", 10)
        path = write(tmp_path, '{"valuations": [{"maximal_contact": [12, 13]}]}')
        assert main(["invariants", path]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "\n  satellites         3-13\n" in captured.out

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_reports_list_no_chain(self, tmp_path, capsys, monkeypatch, fmt):
        def refuse(runs):
            raise AssertionError("a chain was listed point by point")

        rebind(monkeypatch, configurations.expand_runs, refuse)
        path = write(
            tmp_path,
            '{"valuations": [{"proximity": [[], [1], [2, 1]]}, '
            '{"maximal_contact": [6, 9, 34], "trailing_free": 6}, '
            '{"tono": {"a": 4, "e": 1}}]}',
        )
        assert main(["--format", fmt, "invariants", path]) == 0
        assert main(["--format", fmt, "family", "tono", "--a", "12", "--e", "3"]) == 0
        assert capsys.readouterr().err == ""

    def test_family_json_is_one_short_line(self, capsys):
        argv = ["--format", "json", "family", "tono", "--a", "12", "--e", "3"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert len(out.encode("utf-8")) < 2048
        assert out.count("\n") == 1 and out.endswith("\n")
        assert json.loads(out)["valuations"][0]["points"] == 79226

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
        def exhausted(bundle):
            raise exc

        monkeypatch.setattr(checks, "identity_checks", exhausted)
        assert main(["check", write(tmp_path, THREE_POINT)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize("command", ["family", "invariants"])
    def test_numbers_too_large_for_a_float_exit_one(
        self, tmp_path, capsys, command, fmt
    ):
        # a = 10**160 puts mu-hat near a**2, past the largest float; the
        # second contact value 10**320 + 1 does the same to beta'_1.
        if command == "family":
            argv = ["family", "tono", "--a", str(10**160), "--e", "0"]
        else:
            text = f'{{"valuations": [{{"maximal_contact": [2, {10**320 + 1}]}}]}}'
            argv = ["invariants", write(tmp_path, text)]
        assert main(["--format", fmt, *argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err


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
        # A table prints the timestamp as its first line, before the report.
        assert main(["--timestamps", "invariants", path]) == 0
        first, report = capsys.readouterr().out.split("\n", 1)
        assert first.startswith("generated at ")
        datetime.fromisoformat(first.removeprefix("generated at "))
        assert main(["invariants", path]) == 0
        assert report == capsys.readouterr().out


@pytest.mark.parametrize("module", ["valuation_lab", "valuation_lab.cli"])
def test_module_entry_point(tmp_path, module):
    path = write(tmp_path, THREE_POINT)
    result = subprocess.run(
        [sys.executable, "-m", module, "--format", "json", "invariants", path],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["valuations"][0]["contact_values"] == [2, 3, 6]


def test_importing_the_command_line_loads_no_datetime():
    # Only --timestamps reads the clock, so a fresh CLI process skips the module.
    code = "import sys, valuation_lab.cli; print('datetime' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout == "False\n"


# Error exits, each run in a fresh ``python -m valuation_lab`` process:
# (argv, the file text that "FILE" stands for, the whole stderr).  A usage
# error's stderr is argparse's, whose wording varies across Python versions,
# so None stands for what the same argv prints in-process.
FRESH_PROCESS_ERRORS = {
    "unknown verb": (["frobnicate"], None, None),
    "tangent segment through a satellite": (
        ["check", "FILE"],
        '{"valuations": [{"proximity": [[], [1], [2, 1]], "tangent_count": 3}]}',
        "error: valuations[0]: tangent segment cannot reach p_3: a smooth line "
        "cannot pass through a satellite point\n",
    ),
    "bool target": (
        ["check", "FILE"],
        '{"valuations": [{"proximity": [[], [true]]}]}',
        "error: valuations[0].proximity[1]: expected an integer, got True\n",
    ),
    "float target": (
        ["check", "FILE"],
        '{"valuations": [{"proximity": [[], [1.5]]}]}',
        "error: valuations[0].proximity[1]: expected an integer, got 1.5\n",
    ),
    "number too large for a float": (
        ["family", "tono", "--a", str(10**160), "--e", "0"],
        None,
        "error: integer division result too large for a float\n",
    ),
}


@pytest.mark.parametrize(
    "argv, text, stderr", FRESH_PROCESS_ERRORS.values(), ids=FRESH_PROCESS_ERRORS
)
def test_error_exits_in_a_fresh_process(
    tmp_path, capsys, monkeypatch, argv, text, stderr
):
    # The usage layout follows the terminal width; fix it for both sides.
    monkeypatch.setenv("COLUMNS", "80")
    argv = [write(tmp_path, text) if arg == "FILE" else arg for arg in argv]
    if stderr is None:
        assert main(argv) == 1
        stderr = capsys.readouterr().err
    done = subprocess.run(
        [sys.executable, "-m", "valuation_lab", *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (done.returncode, done.stdout, done.stderr) == (1, "", stderr)
    assert "Traceback" not in done.stderr


def _fails_its_check(args):
    return 2


def _crashes(args):
    raise RuntimeError("not a validation error")


# Each way out of ``main``: (argv, the file text that "FILE" stands for, the
# verb patched in or None for the real one, the exit code or the exception).
EXIT_PATHS = {
    "exit 0": (["bounds", "FILE"], THREE_POINT, None, 0),
    "usage error": (["bounds"], None, None, 1),
    "malformed file": (["bounds", "FILE"], '{"valuations": [[]]}', None, 1),
    "failed check": (["check", "FILE"], THREE_POINT, _fails_its_check, 2),
    "escaping exception": (["check", "FILE"], THREE_POINT, _crashes, RuntimeError),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("argv, text, verb, outcome", EXIT_PATHS.values(), ids=EXIT_PATHS)
def test_main_puts_back_the_collector_state(
    tmp_path, capsys, monkeypatch, enabled, argv, text, verb, outcome
):
    """The verb runs with the collector paused; afterwards it is as it was,
    and only a caller that had it on gets the one generation-1 collection."""
    argv = [write(tmp_path, text) if arg == "FILE" else arg for arg in argv]
    verb = verb or cli._COMMANDS[argv[0]]
    during, collections = [], []

    def spy(args):
        during.append(gc.isenabled())
        return verb(args)

    def collected(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    monkeypatch.setitem(cli._COMMANDS, argv[0], spy)
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    gc.collect()
    gc.callbacks.append(collected)
    try:
        if isinstance(outcome, int):
            assert main(argv) == outcome
        else:
            with pytest.raises(outcome):
                main(argv)
        assert gc.isenabled() is enabled
    finally:
        gc.callbacks.remove(collected)
        (gc.enable if before else gc.disable)()
    assert during == ([] if text is None else [False])
    assert collections == ([1] if enabled else [])
