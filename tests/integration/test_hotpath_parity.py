"""End-to-end pin for the write-side template plane.

The scale-0.02, seed-42 pcap is pinned by sha256; the pin was recorded
while the simulator still had a non-template write path and both wrote
this exact file.  The ``--workers auto`` spelling must resolve to a run
that matches an explicit worker count.
"""

import filecmp
import hashlib

import pytest

from repro.cli import main
from repro.quic.crypto.memo import clear_crypto_memos

#: sha256 of ``simulate --scale 0.02 --seed 42``.
PCAP_PIN = "b11f575a30908fdf7221bcea479905b8c169fba78065b73b441a346865fe7aca"


@pytest.fixture(autouse=True)
def _fresh_memos():
    clear_crypto_memos()
    yield
    clear_crypto_memos()


def test_pcap_identical_with_hotpath_disabled(tmp_path):
    """The pin is the file the hot-path-disabled run wrote while it existed."""
    pcap = tmp_path / "month.pcap"
    assert main(["simulate", str(pcap), "--scale", "0.02", "--seed", "42"]) == 0
    assert hashlib.sha256(pcap.read_bytes()).hexdigest() == PCAP_PIN


def test_workers_auto_matches_serial(tmp_path):
    auto = str(tmp_path / "auto.pcap")
    serial = str(tmp_path / "serial.pcap")
    assert (
        main(["simulate", auto, "--scale", "0.02", "--seed", "42", "--workers", "auto"])
        == 0
    )
    assert main(["simulate", serial, "--scale", "0.02", "--seed", "42"]) == 0
    assert filecmp.cmp(auto, serial, shallow=False)


def test_workers_rejects_garbage():
    with pytest.raises(SystemExit):
        main(["simulate", "/tmp/x.pcap", "--workers", "many"])
