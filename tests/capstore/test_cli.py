"""CLI surface of the analysis plane: analyze caching, workers, `repro index`."""

import json
import os
import struct
import subprocess
import sys

import pytest

import repro
from repro.capstore import sidecar_path
from repro.cli import main
from repro.obs import load_snapshot


class TestAnalyzeCaching:
    def test_second_run_hits_cache_with_identical_output(
        self, pcap_copy, tmp_path, capsys
    ):
        cold_metrics = str(tmp_path / "cold.json")
        warm_metrics = str(tmp_path / "warm.json")
        assert main(["analyze", pcap_copy, "--metrics", cold_metrics]) == 0
        cold_out = capsys.readouterr().out
        assert main(["analyze", pcap_copy, "--metrics", warm_metrics]) == 0
        warm_out = capsys.readouterr().out
        assert warm_out == cold_out

        cold = load_snapshot(cold_metrics)
        warm = load_snapshot(warm_metrics)
        assert cold["counters"]["capstore.cache"]["values"] == {"miss": 1}
        assert "index.build" in cold["timers"]
        assert warm["counters"]["capstore.cache"]["values"] == {"hit": 1}
        assert "index.load" in warm["timers"]
        assert "index.build" not in warm["timers"]

    def test_workers_and_no_cache_output_identical(self, pcap_copy, capsys):
        assert main(["analyze", pcap_copy, "--no-cache"]) == 0
        serial_out = capsys.readouterr().out
        assert not os.path.exists(sidecar_path(pcap_copy))
        assert main(["analyze", pcap_copy, "--workers", "4", "--no-cache"]) == 0
        parallel_out = capsys.readouterr().out
        assert parallel_out == serial_out
        assert not os.path.exists(sidecar_path(pcap_copy))

    def test_cached_run_renders_same_tables_as_no_cache(self, pcap_copy, capsys):
        assert main(["analyze", pcap_copy, "--no-cache", "--tables", "rto"]) == 0
        uncached = capsys.readouterr().out
        assert main(["analyze", pcap_copy, "--tables", "rto"]) == 0
        capsys.readouterr()
        assert main(["analyze", pcap_copy, "--tables", "rto"]) == 0
        cached = capsys.readouterr().out
        assert cached == uncached


class TestTablesValidation:
    def test_unknown_table_aborts_before_pcap_read(self, tmp_path):
        missing = str(tmp_path / "never-written.pcap")
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", missing, "--tables", "5"])
        message = str(excinfo.value)
        assert "unknown table name 5" in message
        assert "valid names: 1, 2, 3, 4, rto, lengths" in message

    def test_multiple_unknown_names_all_reported(self, tmp_path):
        missing = str(tmp_path / "never-written.pcap")
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", missing, "--tables", "rt0", "2", "bogus"])
        message = str(excinfo.value)
        assert "unknown table names bogus, rt0" in message

    def test_valid_selection_passes_validation(self, month_pcap, capsys):
        assert main(["analyze", month_pcap, "--no-cache", "--tables", "2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "Table 3" not in out


class TestClassifyCaching:
    def test_cached_classify_json_matches_cold(self, pcap_copy, capsys):
        assert main(["classify", pcap_copy, "--json"]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert main(["classify", pcap_copy, "--json"]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["stats"] == cold["stats"]
        sanitize = "sanitize.packets"
        assert (
            warm["metrics"]["counters"][sanitize]["values"]
            == cold["metrics"]["counters"][sanitize]["values"]
        )
        assert "index.load" in warm["metrics"]["timers"]


class TestIndexCommand:
    def test_build_then_validate(self, pcap_copy, capsys):
        assert main(["index", pcap_copy, "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "Indexed" in out and "[workers=2]" in out
        assert os.path.exists(sidecar_path(pcap_copy))
        assert main(["index", pcap_copy]) == 0
        assert "Validated" in capsys.readouterr().out

    def test_info_reports_validity(self, pcap_copy, capsys):
        assert main(["index", pcap_copy, "--info"]) == 1  # no index yet
        assert "no index" in capsys.readouterr().out
        assert main(["index", pcap_copy]) == 0
        capsys.readouterr()
        assert main(["index", pcap_copy, "--info"]) == 0
        out = capsys.readouterr().out
        assert "valid for pcap" in out and "yes" in out
        assert main(["simulate", pcap_copy, "--scale", "0.05", "--seed", "7"]) == 0
        capsys.readouterr()
        assert main(["index", pcap_copy, "--info"]) == 1
        assert "STALE" in capsys.readouterr().out

    def test_force_rebuilds(self, pcap_copy, capsys):
        assert main(["index", pcap_copy]) == 0
        capsys.readouterr()
        assert main(["index", pcap_copy, "--force"]) == 0
        assert "Indexed" in capsys.readouterr().out


class TestUnreadableCapture:
    """A capture the reader refuses is a one-line error, not a traceback."""

    @staticmethod
    def _bad_magic(path):
        path.write_bytes(b"\x00" * 64)
        return "repro: error: bad pcap magic 0x00000000\n"

    @staticmethod
    def _ethernet(path):
        path.write_bytes(
            struct.pack("<IHHiIII", 0xA1B2C3D4, 2, 4, 0, 0, 65535, 1)
            + struct.pack("<IIII", 1, 0, 34, 34)
            + b"\x00" * 34
        )
        return "repro: error: unsupported pcap link type 1 (only raw IP, 101)\n"

    @pytest.mark.parametrize("command", ("analyze", "index"))
    @pytest.mark.parametrize("capture", ("_bad_magic", "_ethernet"))
    def test_one_line_error(self, tmp_path, capsys, command, capture):
        path = tmp_path / "foreign.pcap"
        expected = getattr(self, capture)(path)
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == expected
        assert captured.out == ""
        assert not os.path.exists(sidecar_path(str(path)))


class TestMissingCapture:
    """A missing input pcap is a one-line error from the real command line."""

    @pytest.mark.parametrize("command", ("analyze", "index", "classify"))
    def test_one_line_error(self, tmp_path, command):
        path = str(tmp_path / "nope.pcap")
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        result = subprocess.run(
            [sys.executable, "-m", "repro", command, path],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert result.stderr == "repro: error: %s: No such file or directory\n" % path
        assert result.stdout == ""
