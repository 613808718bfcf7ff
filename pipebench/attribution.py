"""Spans → per-layer metrics: self time, calls, exact counts, shares.

A span's self time is its duration minus the time its direct children
cover; calls nest strictly in one thread, so children never overlap.
Each traced stage has one root span (``stage.<name>``); the root's own
self time is the stage's *unattributed* time, so for every stage the
layer self times plus the unattributed time add up to the stage's wall
time exactly (:func:`stage_breakdown` returns both sides).

:data:`PER_LAYER` lists every per-layer metric the traced run prints,
with its unit, which way is better, and where its value comes from.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

STAGES = ("simulate", "index", "analyze", "live")


def _self(span):
    return ("self", span)


def _calls(span):
    return ("calls", span)


def _count(key):
    return ("count", key)


_TABLES = (
    "core.summarize",
    "core.table2",
    "core.packet_mix",
    "core.table4",
    "core.timing_profiles",
    "core.top_length_signatures",
    "core.report.render_table",
    "core.report.render_histogram",
)
_DROPS = ("non_udp", "non_port_443", "failed_dissection", "acknowledged_scanner")
#: Modules whose cumulative ``-X importtime`` is reported.
IMPORTS = ("repro.capstore", "repro.obs", "repro.stream", "numpy")

#: (metric, unit, better, source).  Source kinds: ``self``/``incl`` —
#: summed self/inclusive seconds of a span name; ``calls`` — calls into
#: the boundary; ``count`` — an exact count recorded at a boundary;
#: ``ratio`` — derived from counts or the span tree; ``import``,
#: ``unattributed`` and ``overhead`` — see :func:`pass_metrics`.
PER_LAYER = (
    ("workloads.build_s", "s", "lower", ("incl", "workloads.build")),
    ("workloads.client_initial.calls", "count", "lower", _calls("workloads.client_initial")),
    ("workloads.client_initial.self_s", "s", "lower", _self("workloads.client_initial")),
    ("simnet.eventloop.events", "count", "lower", _count("simnet.eventloop.events")),
    ("simnet.eventloop.self_s", "s", "lower", _self("simnet.eventloop")),
    ("simnet.network.transmit.calls", "count", "lower", _calls("simnet.network.transmit")),
    ("simnet.network.transmit.self_s", "s", "lower", _self("simnet.network.transmit")),
    ("simnet.network.delivered", "count", "lower", _count("simnet.network.delivered")),
    ("simnet.network.dropped_loss", "count", "lower", _count("simnet.network.dropped_loss")),
    (
        "simnet.network.dropped_unrouted",
        "count",
        "lower",
        _count("simnet.network.dropped_unrouted"),
    ),
    ("server.lb.forward.calls", "count", "lower", _calls("server.lb.forward")),
    ("server.lb.forward.self_s", "s", "lower", _self("server.lb.forward")),
    ("server.engine.on_datagram.calls", "count", "lower", _calls("server.engine.on_datagram")),
    ("server.engine.on_datagram.self_s", "s", "lower", _self("server.engine.on_datagram")),
    ("server.engine.datagrams_out", "count", "lower", _count("server.engine.datagrams_out")),
    ("quic.crypto.initial_keys.calls", "count", "lower", _calls("quic.crypto.initial_keys")),
    ("quic.crypto.initial_keys.self_s", "s", "lower", _self("quic.crypto.initial_keys")),
    ("quic.crypto.initial_keys.memo_hit_ratio", "ratio", "higher", ("ratio", "memo_hit")),
    ("quic.crypto.seal.calls", "count", "lower", _calls("quic.crypto.seal")),
    ("quic.crypto.seal.self_s", "s", "lower", _self("quic.crypto.seal")),
    ("quic.crypto.open.calls", "count", "lower", _calls("quic.crypto.open")),
    ("quic.crypto.open.self_s", "s", "lower", _self("quic.crypto.open")),
    ("quic.crypto.open.tries_per_initial", "ratio", "lower", ("ratio", "tries_per_initial")),
    ("netstack.pcap.write_s", "s", "lower", ("incl", "netstack.pcap.write")),
    ("netstack.pcap.write_bytes", "bytes", "lower", _count("netstack.pcap.write_bytes")),
    ("netstack.pcap.scan.calls", "count", "lower", _calls("netstack.pcap.scan")),
    ("netstack.pcap.scan.self_s", "s", "lower", _self("netstack.pcap.scan")),
    ("netstack.pcap.scan.records", "count", "lower", _count("netstack.pcap.scan.records")),
    ("netstack.pcap.scan.bytes", "bytes", "lower", _count("netstack.pcap.scan.bytes")),
    ("netstack.udp.decode.calls", "count", "lower", _calls("netstack.udp.decode")),
    ("netstack.udp.decode.self_s", "s", "lower", _self("netstack.udp.decode")),
    ("quic.packet.decode.calls", "count", "lower", _calls("quic.packet.decode")),
    ("quic.packet.decode.self_s", "s", "lower", _self("quic.packet.decode")),
    ("quic.packet.decode.packets", "count", "lower", _count("quic.packet.decode.packets")),
    ("core.dissector.dissect.calls", "count", "lower", _calls("core.dissector.dissect")),
    ("core.dissector.dissect.self_s", "s", "lower", _self("core.dissector.dissect")),
    ("core.dissector.aead_useful_ratio", "ratio", "higher", ("ratio", "aead_useful")),
    ("telescope.capture.calls", "count", "lower", _calls("telescope.capture")),
    ("telescope.capture.self_s", "s", "lower", _self("telescope.capture")),
    ("telescope.classify.record.calls", "count", "lower", _calls("telescope.classify.record")),
    ("telescope.classify.record.self_s", "s", "lower", _self("telescope.classify.record")),
    *(
        (
            "telescope.classify.drop." + reason,
            "count",
            "lower",
            _count("telescope.classify.drop." + reason),
        )
        for reason in _DROPS
    ),
    *(
        (
            "telescope.classify.kept." + klass,
            "count",
            "higher",
            _count("telescope.classify.kept." + klass),
        )
        for klass in ("backscatter", "scan")
    ),
    ("capstore.build.self_s", "s", "lower", _self("capstore.build")),
    ("capstore.sidecar.write_s", "s", "lower", ("incl", "capstore.sidecar.write")),
    ("capstore.sidecar.load_s", "s", "lower", ("incl", "capstore.sidecar.load")),
    ("capstore.sidecar.bytes", "bytes", "lower", _count("capstore.sidecar.bytes")),
    ("capstore.cache.self_s", "s", "lower", _self("capstore.cache")),
    ("capstore.cache.hit", "count", "higher", _count("capstore.cache.hit")),
    ("capstore.cache.extended", "count", "higher", _count("capstore.cache.extended")),
    ("capstore.cache.miss", "count", "lower", _count("capstore.cache.miss")),
    *((name + ".self_s", "s", "lower", _self(name)) for name in _TABLES),
    ("stream.poll.calls", "count", "lower", _calls("stream.poll")),
    ("stream.poll.self_s", "s", "lower", _self("stream.poll")),
    ("stream.poll.rows", "count", "higher", _count("stream.poll.rows")),
    ("stream.feed.calls", "count", "lower", _calls("stream.feed")),
    ("stream.feed.self_s", "s", "lower", _self("stream.feed")),
    ("stream.feed.rows", "count", "higher", _count("stream.feed.rows")),
    ("stream.publish.calls", "count", "lower", _calls("stream.publish")),
    ("stream.publish.self_s", "s", "lower", _self("stream.publish")),
    *(
        ("import.%s.cumulative_s" % module, "s", "lower", ("import", module))
        for module in IMPORTS
    ),
    *(
        ("%s.unattributed_share" % stage, "share", "lower", ("unattributed", stage))
        for stage in STAGES
    ),
    ("trace.overhead_share", "share", "lower", ("overhead", None)),
)

#: Sources whose value must repeat exactly between two passes at one seed.
EXACT_KINDS = ("calls", "count", "ratio")


def stage_breakdown(spans: list) -> dict:
    """Self and inclusive seconds per span name for one stage's spans.

    Returns ``{"wall_s", "unattributed_s", "self": {name: s}, "incl":
    {name: s}, "tries": n, "validations": n, "useful": n}``.  The root
    (``stage.*``) span is excluded from ``self``; its self time is
    ``unattributed_s``, so ``sum(self.values()) + unattributed_s ==
    wall_s`` up to float rounding.
    """
    covered = [0.0] * len(spans)
    opens = [0] * len(spans)
    for span in spans:
        name, start, end, parent, _tag = span
        if parent >= 0:
            covered[parent] += end - start
            if name == "quic.crypto.open":
                opens[parent] += 1
    self_s: dict = defaultdict(float)
    incl_s: dict = defaultdict(float)
    tries = validations = useful = 0
    for index, (name, start, end, parent, _tag) in enumerate(spans):
        if parent < 0:
            continue
        self_s[name] += (end - start) - covered[index]
        incl_s[name] += end - start
        if name == "core.dissector.dissect" and opens[index]:
            tries += opens[index]
            validations += 1
            tag = spans[parent][4] if spans[parent][0] == "telescope.classify.record" else None
            if tag is not None and tag.startswith("kept."):
                useful += 1
    root = spans[0]
    wall = root[2] - root[1]
    return {
        "wall_s": wall,
        "unattributed_s": wall - covered[0],
        "self": dict(self_s),
        "incl": dict(incl_s),
        "tries": tries,
        "validations": validations,
        "useful": useful,
    }


def pass_metrics(stages: dict, imports: dict, overhead: float) -> dict:
    """Every :data:`PER_LAYER` value for one traced pass.

    ``stages`` maps stage name → ``(header, spans)`` as
    :func:`spans.load` returns them; stages a workload does not run are
    simply absent, and their layers read 0 (the bypass).
    """
    calls: Counter = Counter()
    counts: Counter = Counter()
    self_s: Counter = Counter()
    incl_s: Counter = Counter()
    unattributed = {}
    tries = validations = useful = 0
    for stage, (header, spans) in stages.items():
        breakdown = stage_breakdown(spans)
        calls.update(header["calls"])
        counts.update(header["counts"])
        self_s.update(breakdown["self"])
        incl_s.update(breakdown["incl"])
        unattributed[stage] = breakdown["unattributed_s"] / breakdown["wall_s"]
        tries += breakdown["tries"]
        validations += breakdown["validations"]
        useful += breakdown["useful"]
    hits = counts["quic.crypto.initial_keys.memo_hits"]
    lookups = hits + counts["quic.crypto.initial_keys.memo_misses"]
    ratios = {
        "memo_hit": hits / lookups if lookups else 0.0,
        "tries_per_initial": tries / validations if validations else 0.0,
        "aead_useful": useful / validations if validations else 0.0,
    }
    values = {}
    for name, _unit, _better, (kind, key) in PER_LAYER:
        if kind == "self":
            values[name] = self_s[key]
        elif kind == "incl":
            values[name] = incl_s[key]
        elif kind == "calls":
            values[name] = calls[key]
        elif kind == "count":
            values[name] = counts[key]
        elif kind == "ratio":
            values[name] = ratios[key]
        elif kind == "import":
            values[name] = imports.get(key, 0.0)
        elif kind == "unattributed":
            values[name] = unattributed.get(key, 0.0)
        else:
            values[name] = overhead
    return values


def combine(passes: list) -> tuple:
    """Median per-layer values over passes, plus the exact-count mismatches.

    Counts, calls and ratios come from the first pass and must equal
    every other pass's; the returned list names each one that did not.
    """
    combined = {}
    mismatched = []
    for name, _unit, _better, (kind, _key) in PER_LAYER:
        values = [values[name] for values in passes]
        if kind in EXACT_KINDS:
            combined[name] = values[0]
            if any(value != values[0] for value in values[1:]):
                mismatched.append(name)
        else:
            combined[name] = statistics.median(values)
    return combined, mismatched


def parse_importtime(stderr: str) -> dict:
    """Cumulative seconds of :data:`IMPORTS` from ``-X importtime`` output."""
    found = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = [part.strip() for part in line[len("import time:"):].split("|")]
        if len(parts) == 3 and parts[2] in IMPORTS and parts[1].isdigit():
            found[parts[2]] = int(parts[1]) / 1e6
    return found
