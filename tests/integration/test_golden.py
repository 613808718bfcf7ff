"""Absolute golden anchors: sha256 of the pipeline's outputs at fixed inputs.

Every other parity gate compares two arms of the same code (serial vs
sharded, hot path on vs off, live vs batch), so a change that shifts both
arms passes them all.  These digests pin the bytes themselves: the
simulated pcap, the ``analyze --tables 1 2 3 4 rto lengths`` render and a
two-cell sweep's ``results.csv``, all at seed 20220101.  On the
scale-0.05 month they also pin the paper counts the sweep metrics
report, the ``repro live`` reducer snapshot and the ``stream.*`` gauges
it publishes.  The same digests come out of the stdlib-only path on
Python 3.10, 3.11 and 3.12, except the last two, whose floats differ
from 3.12 on.  The scale-0.05 pair equals the ``month``
pin in ``pipebench/digests.json``.
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
import sys

import pytest

from repro.capstore import ClassifiedView, build_capture_table
from repro.cli import main
from repro.core.packet_mix import TABLE3_ROWS
from repro.core.versions import TABLE2_ROWS
from repro.obs import MetricsRegistry
from repro.quic.crypto.memo import clear_crypto_memos
from repro.stream import StreamAnalyses
from repro.sweep.metrics import ORIGINS, SIDES, evaluate_metrics

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

#: Every Table 2/3/4/6 sweep metric of the 2022 scale-0.05 month.
MONTH_METRICS = {
    "version_share.clients.QUICv1": 77.77777777777777,
    "version_share.clients.Facebook mvfst 2": 21.241830065359476,
    "version_share.clients.draft-29": 0.6535947712418301,
    "version_share.clients.others": 0.32679738562091504,
    "version_share.servers.QUICv1": 60.8433734939759,
    "version_share.servers.Facebook mvfst 2": 29.518072289156628,
    "version_share.servers.draft-29": 2.4096385542168677,
    "version_share.servers.others": 7.228915662650603,
    "packet_share.Cloudflare.Initial": 50.0,
    "packet_share.Cloudflare.Handshake": 50.0,
    "packet_share.Cloudflare.0-RTT": 0.0,
    "packet_share.Cloudflare.Retry": 0.0,
    "packet_share.Cloudflare.Coalesced Initial & Handshake": 0.0,
    "packet_share.Facebook.Initial": 50.0,
    "packet_share.Facebook.Handshake": 50.0,
    "packet_share.Facebook.0-RTT": 0.0,
    "packet_share.Facebook.Retry": 0.0,
    "packet_share.Facebook.Coalesced Initial & Handshake": 0.0,
    "packet_share.Google.Initial": 21.16788321167883,
    "packet_share.Google.Handshake": 20.62043795620438,
    "packet_share.Google.0-RTT": 0.0,
    "packet_share.Google.Retry": 0.0,
    "packet_share.Google.Coalesced Initial & Handshake": 58.21167883211679,
    "packet_share.Remaining.Initial": 66.1697247706422,
    "packet_share.Remaining.Handshake": 31.65137614678899,
    "packet_share.Remaining.0-RTT": 0.22935779816513763,
    "packet_share.Remaining.Retry": 0.0,
    "packet_share.Remaining.Coalesced Initial & Handshake": 1.9495412844036697,
    "scid_unique.Cloudflare": 1.0,
    "scid_unique.Facebook": 44.0,
    "scid_unique.Google": 79.0,
    "scid_unique.Remaining": 41.0,
    "offnet.servers": 30.0,
    "offnet.low_host_id": 10.0,
}

#: sha256 of ``json.dumps(snapshot, sort_keys=True)`` after one whole-table
#: feed, and of the sorted JSON of the ``stream.*`` gauges after ``publish``.
#: Both carry each origin's largest chi-square statistic, a float ``sum``
#: whose last bits changed when Python 3.12 made ``sum`` compensated.
if sys.version_info >= (3, 12):
    MONTH_SNAPSHOT = "4063f2080a23eb669583cc46901885d030e2568e18883925c0e65bbb08c41808"
    MONTH_GAUGES = "5febff14d235d00b3e8dd40d50b8ae2292506fd448c943aeef6077ebbcfe2ae4"
else:
    MONTH_SNAPSHOT = "fb9f6b554b2944852d1330872c83a5ea356599ba1407760e676446fedc1cacee"
    MONTH_GAUGES = "cc85394a1edabe8984660590a8e859b2d9cb7284e195a5c6632b5a74bbc24847"


@pytest.fixture(autouse=True)
def _cold_defaults():
    clear_crypto_memos()
    yield
    clear_crypto_memos()


@pytest.fixture(scope="module")
def month_view(tmp_path_factory):
    """The 2022 scale-0.05 month, indexed into a ClassifiedView."""
    clear_crypto_memos()
    pcap = tmp_path_factory.mktemp("golden") / "month.pcap"
    _run(["simulate", str(pcap), "--scale", "0.05", "--seed", SEED])
    return ClassifiedView(*build_capture_table(str(pcap)))


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


def test_sweep_paper_metrics(month_view):
    names = (
        ["version_share.%s.%s" % (side, b) for side in SIDES for b in TABLE2_ROWS]
        + ["packet_share.%s.%s" % (o, c) for o in ORIGINS for c in TABLE3_ROWS]
        + ["scid_unique.%s" % o for o in ORIGINS]
        + ["offnet.servers", "offnet.low_host_id"]
    )
    assert evaluate_metrics(names, month_view, {}) == MONTH_METRICS


def _fed(view) -> StreamAnalyses:
    analyses = StreamAnalyses()
    analyses.feed(view.table, 0, view.table.num_rows)
    return analyses


def test_live_snapshot(month_view):
    snapshot = json.dumps(_fed(month_view).snapshot(), sort_keys=True)
    assert _sha256(snapshot.encode()) == MONTH_SNAPSHOT


def test_live_gauges(month_view):
    metrics = MetricsRegistry()
    _fed(month_view).publish(metrics)
    gauges = metrics.snapshot()["gauges"]
    assert all(name.startswith("stream.") for name in gauges)
    assert _sha256(json.dumps(gauges, sort_keys=True).encode()) == MONTH_GAUGES
