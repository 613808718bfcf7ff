"""Workload generator for the pipeline benchmark.

Every input the benchmark feeds the program is derived here from the
``--seed`` argument and the workload's fixed scale.  A workload is a
:class:`~repro.workloads.scenario.ScenarioConfig` (the default 2022 month,
optionally with traffic families zeroed out) plus the chunk schedule the
live follower sees when the resulting capture is appended to a fresh
file.  Nothing here is timed.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field

#: Seed at which ``digests.json`` pins the pcap and analyze digests
#: (the CLI's own ``--seed`` default).
DEFAULT_SEED = 20220101
#: Every ``repro analyze`` selector, as ``--tables`` takes them.
TABLES = ("1", "2", "3", "4", "rto", "lengths")

_ATTACKS = (
    "attacks_facebook",
    "attacks_google",
    "attacks_cloudflare",
    "attacks_offnet",
    "attacks_remaining",
)
_SCANS = (
    "research_scan_packets",
    "unknown_scan_packets",
    "zero_rtt_scan_packets",
    "noise_packets",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Traffic scale: small enough that a run repeats the whole pipeline
    #: several times, and chosen so every workload captures about 3,800
    #: records — the fixed per-command cost then weighs the same in each,
    #: and the seed-to-seed spread of the record count stays small.
    scale: float = 0.05
    #: ScenarioConfig fields forced after scaling.
    overrides: dict = field(default_factory=dict)
    #: True: simulate with the ``repro simulate`` CLI; False: the CLI has
    #: no flag for the overrides, so a fresh process calls ``run_to_pcap``.
    cli_simulate: bool = True
    #: Chunks per live pass (record-unaligned, seeded sizes).
    live_chunks: int = 200
    #: Open-loop offered rate in records/s: a quarter to a half of the
    #: closed-loop capacity this chunking reaches on the reference machine,
    #: so a healthy follower keeps up and a chunk's lag is mostly its own
    #: cost.
    offered_rps: float = 3000.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "month",
            "default 2022 month at scale 0.05 (3,846 records at seed 20220101): "
            "50% backscatter, 39% acknowledged scans, 8% kept scans; every layer works",
        ),
        Workload(
            "backscatter",
            "month at scale 0.1 with scans and noise zeroed (3,867 records): engine, LB, "
            "seals and structural parsing; no client Initials, no read-side AEAD",
            scale=0.1,
            overrides={name: 0 for name in _SCANS},
            cli_simulate=False,
        ),
        Workload(
            "scan",
            "month at scale 0.1 with attacks zeroed (3,862 records): client Initials, "
            "key derivation and AEAD open per record, 84% dropped as acknowledged; no engine",
            scale=0.1,
            overrides={name: 0 for name in _ATTACKS},
            cli_simulate=False,
        ),
        Workload(
            "live",
            "month capture appended in 800 fine torn chunks per pass: poll, tail scan, "
            "feed and publish cost per chunk; closed loop plus 2,000 records/s open loop",
            live_chunks=800,
            offered_rps=2000.0,
        ),
    )
}


def scenario_config(workload: str, seed: int, scale: float):
    """The ScenarioConfig the simulate stage of ``workload`` runs."""
    from dataclasses import replace

    from repro.workloads.scenario import ScenarioConfig

    config = ScenarioConfig(seed=seed).scaled(scale)
    return replace(config, **WORKLOADS[workload].overrides)


def chunk_ranges(workload: str, seed: int, size: int) -> list:
    """Seeded, record-unaligned ``(start, end)`` byte ranges covering ``size``.

    Chunk lengths are drawn uniformly from half to one and a half times
    the mean, so most chunks end inside a record (a torn tail the
    follower must leave for the next poll).
    """
    count = WORKLOADS[workload].live_chunks
    rng = random.Random("%s|%d|chunks" % (workload, seed))
    weights = [rng.uniform(0.5, 1.5) for _ in range(count)]
    scale = size / sum(weights)
    ranges = []
    start = 0
    total = 0.0
    for weight in weights:
        total += weight
        end = min(size, round(total * scale))
        if end > start:
            ranges.append((start, end))
            start = end
    if start < size:
        ranges.append((start, size))
    return ranges


def record_ends(data: bytes) -> list:
    """Byte offset one past each record of a little-endian pcap image."""
    ends = []
    pos = 24
    while pos + 16 <= len(data):
        incl_len = struct.unpack_from("<I", data, pos + 8)[0]
        pos += 16 + incl_len
        if pos > len(data):
            break
        ends.append(pos)
    return ends
