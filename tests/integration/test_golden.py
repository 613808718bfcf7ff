"""Absolute golden anchors: sha256 of the pipeline's outputs at fixed inputs.

Every other parity gate compares two arms of the same code (serial vs
sharded, hot path on vs off, live vs batch), so a change that shifts both
arms passes them all.  These digests pin the bytes themselves: the
simulated pcap, the ``analyze --tables 1 2 3 4 rto lengths`` render and a
two-cell sweep's ``results.csv``, all at seed 20220101.  The same digests
come out of the stdlib-only path on Python 3.10, 3.11 and 3.12.  The
scale-0.05 pair equals the ``month`` pin in ``pipebench/digests.json``.
The ``--year 2021`` point covers the April-2021 scenario, whose pre-v1
draft versions take header and flight template shapes the 2022 month
does not.

Only a deliberate output change may re-pin them, and its change log
entry says why.
"""

import contextlib
import hashlib
import io
import json

import pytest

from repro.cli import main
from repro.quic.crypto.memo import clear_crypto_memos

SEED = "20220101"
TABLES = ["1", "2", "3", "4", "rto", "lengths"]

#: (year, scale) -> (pcap sha256, analyze render sha256)
GOLDEN = {
    ("2021", "0.01"): (
        "580c4968338aabe57304d33c541bec694838b88f8750f47559ac2ecc546d95d8",
        "33669b3fdf1db0913dd91c4fd95b3bd9a76d2aede9cdefadad77781a9ff69da8",
    ),
    ("2022", "0.01"): (
        "3d3ba29ffddc8c9fed97f620a803ddd9e709f27257b856015ad2859e35698ce0",
        "9accdff2017079b2696b4650b47eef3120a4197af9186b743eb7bf274774080f",
    ),
    ("2022", "0.05"): (
        "614fa2e08279f913cb72b5fee0d10d7e933bc726f6947d5993c76c4aae0d9f60",
        "6b3685e26ae9542ddec6f573395855aa56f2a7c2c9746047d6702e744eab8592",
    ),
}

SWEEP_SPEC = {
    "name": "golden",
    "base": {"scale": 0.01, "seed": int(SEED)},
    "axes": {"loss_rate": [0.0, 0.2]},
    "metrics": ["rows.total", "rows.backscatter", "removed_share"],
}
SWEEP_CSV = "6c3cb2c90dfe115497eb6f75cb1f7eb90352c6be9e218efad4d4c93167905d36"


@pytest.fixture(autouse=True)
def _cold_defaults():
    clear_crypto_memos()
    yield
    clear_crypto_memos()


def _run(argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue().encode()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("scale", ["0.01", "0.05"])
def test_pcap_and_analyze_render(tmp_path, scale):
    _check_golden(tmp_path, "2022", scale)


def test_year_2021_pcap_and_analyze_render(tmp_path):
    _check_golden(tmp_path, "2021", "0.01")


def _check_golden(tmp_path, year, scale):
    pcap = tmp_path / "month.pcap"
    _run(["simulate", str(pcap), "--year", year, "--scale", scale, "--seed", SEED])
    render = _run(["analyze", str(pcap), "--no-cache", "--tables", *TABLES])
    assert (_sha256(pcap.read_bytes()), _sha256(render)) == GOLDEN[year, scale]


def test_sweep_results_csv(tmp_path):
    spec = tmp_path / "golden.json"
    spec.write_text(json.dumps(SWEEP_SPEC))
    outdir = tmp_path / "golden.sweep"
    _run(["sweep", "run", str(spec), "--out", str(outdir), "--quiet"])
    assert _sha256((outdir / "results.csv").read_bytes()) == SWEEP_CSV
