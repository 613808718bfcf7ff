"""Outside-in span recorder for the traced benchmark run.

The program is not edited: :func:`install` replaces each layer's public
entry point (a module function or a class method) with a wrapper that
records one span per call — name, start, end, parent — into an
in-memory :class:`Recorder`.  Module functions are replaced in every
loaded ``repro`` module that imported them by name, so callers that did
``from x import f`` see the wrapper too.  Spans are written to a file
only when the stage ends (:meth:`Recorder.dump`).

A call that re-enters the layer it is already inside (a subclass method
falling back to its base, ``build_capture_table`` calling
``build_from_records``) records no second span, so a layer never counts
its own time twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter

perf_counter = time.perf_counter


class Recorder:
    """Spans and exact counts of one traced stage, kept in memory."""

    def __init__(self) -> None:
        #: One ``[name, start, end, parent_index, tag]`` list per span.
        self.spans: list = []
        self.stack: list = []
        #: Calls into each layer (generator functions count creations).
        self.calls: Counter = Counter()
        #: Work counts recorded at the boundaries (records, rows, bytes…).
        self.counts: Counter = Counter()
        #: Live objects seen at a boundary, for end-of-stage counters.
        self.instances: dict = {}

    def begin(self, name: str) -> list:
        stack = self.stack
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        return span

    def end(self, span: list) -> None:
        span[2] = perf_counter()
        self.stack.pop()

    def inside(self, name: str) -> bool:
        return bool(self.stack) and self.spans[self.stack[-1]][0] == name

    def see(self, kind: str, obj) -> None:
        self.instances.setdefault(kind, {})[id(obj)] = obj

    def dump(self, path: str, trace_id: str) -> None:
        """Write every span, one JSON array per line, after a header line."""
        with open(path, "w") as fileobj:
            fileobj.write(
                json.dumps(
                    {
                        "trace_id": trace_id,
                        "fields": ["name", "start", "end", "parent", "tag"],
                        "calls": dict(self.calls),
                        "counts": dict(self.counts),
                    },
                    sort_keys=True,
                )
                + "\n"
            )
            for span in self.spans:
                fileobj.write(json.dumps(span) + "\n")


def load(path: str) -> tuple:
    """Read a :meth:`Recorder.dump` file back: ``(header, spans)``."""
    with open(path) as fileobj:
        header = json.loads(fileobj.readline())
        spans = [json.loads(line) for line in fileobj]
    return header, spans


def _wrap_call(recorder: Recorder, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if recorder.inside(name):
            return fn(*args, **kwargs)
        recorder.calls[name] += 1
        span = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(span)
        if after is not None:
            after(recorder, span, args, result)
        return result

    return wrapper


def _wrap_generator(recorder: Recorder, name: str, fn, per_item=None):
    """Each resumption of the generator is one span under its consumer."""

    def resume(gen):
        while True:
            span = recorder.begin(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                recorder.end(span)
            if per_item is not None:
                per_item(recorder, item)
            yield item

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        recorder.calls[name] += 1
        return resume(fn(*args, **kwargs))

    return wrapper


# -- boundary hooks: exact counts taken where the work happens --------------


def _count_result_len(key):
    def after(recorder, span, args, result):
        recorder.counts[key] += len(result)

    return after


def _count_result(key):
    def after(recorder, span, args, result):
        recorder.counts[key] += result

    return after


def _see_self(kind):
    def after(recorder, span, args, result):
        recorder.see(kind, args[0])

    return after


def _pcap_record(recorder, record):
    recorder.counts["netstack.pcap.scan.records"] += 1
    recorder.counts["netstack.pcap.scan.bytes"] += len(record.data)


def _classified(recorder, span, args, result):
    captured, reason = result
    tag = "drop." + reason if captured is None else "kept." + captured.klass.value
    span[4] = tag
    recorder.counts["telescope.classify." + tag] += 1


def _cache_status(recorder, span, args, result):
    recorder.counts["capstore.cache." + result.status] += 1


def _sidecar_written(recorder, span, args, result):
    recorder.counts["capstore.sidecar.bytes"] += os.path.getsize(args[0])


def _pcap_written(recorder, span, args, result):
    target = args[0] if isinstance(args[0], str) else args[1]
    size = os.path.getsize(target) if isinstance(target, str) else target.tell()
    recorder.counts["netstack.pcap.write_bytes"] += size


#: (span name, module, attribute, hook).  A dotted attribute is a method;
#: a hook whose name is ``per_item`` marks a generator function.
TARGETS = (
    ("workloads.build", "repro.workloads.scenario", "build_scenario", None),
    (
        "workloads.client_initial",
        "repro.workloads.clients",
        "ClientConnection.initial_datagram",
        None,
    ),
    ("simnet.eventloop", "repro.simnet.eventloop", "EventLoop.run", _see_self("loop")),
    (
        "simnet.network.transmit",
        "repro.simnet.network",
        "Network.transmit",
        _see_self("network"),
    ),
    ("server.lb.forward", "repro.server.lb.l4lb", "L4LoadBalancer.forward", None),
    (
        "server.engine.on_datagram",
        "repro.server.engine",
        "QuicServerEngine.on_datagram",
        None,
    ),
    ("quic.crypto.initial_keys", "repro.quic.crypto.memo", "cached_initial_keys", None),
    ("quic.crypto.seal", "repro.quic.crypto.suites", "PacketProtection.protect", None),
    ("quic.crypto.seal", "repro.quic.crypto.suites", "FastProtection.protect", None),
    ("quic.crypto.seal", "repro.quic.crypto.suites", "NullProtection.protect", None),
    ("quic.crypto.open", "repro.quic.packet", "unprotect_packet", None),
    ("netstack.pcap.write", "repro.netstack.pcap", "write_pcap", _pcap_written),
    (
        "netstack.pcap.write",
        "repro.telescope.darknet",
        "Telescope.write_pcap",
        _pcap_written,
    ),
    ("netstack.pcap.scan", "repro.netstack.pcap", "scan_pcap_tail", None),
    ("netstack.pcap.scan", "repro.netstack.pcap", "scan_pcap_offsets", None),
    ("netstack.pcap.scan", "repro.netstack.pcap", "iter_pcap", _pcap_record),
    ("netstack.pcap.scan", "repro.netstack.pcap", "iter_pcap_range", _pcap_record),
    ("netstack.udp.decode", "repro.netstack.udp", "decode_udp", None),
    (
        "quic.packet.decode",
        "repro.quic.packet",
        "decode_datagram",
        _count_result_len("quic.packet.decode.packets"),
    ),
    ("core.dissector.dissect", "repro.core.dissector", "dissect_datagram", None),
    ("telescope.capture", "repro.telescope.darknet", "Telescope.handle_datagram", None),
    (
        "telescope.classify.record",
        "repro.telescope.classify",
        "classify_record",
        _classified,
    ),
    ("capstore.build", "repro.capstore.build", "build_capture_table", None),
    ("capstore.build", "repro.capstore.build", "build_from_records", None),
    ("capstore.sidecar.write", "repro.capstore.format", "dump_index", _sidecar_written),
    ("capstore.sidecar.load", "repro.capstore.format", "load_index", None),
    ("capstore.cache", "repro.capstore.cache", "load_or_build_ex", _cache_status),
    ("core.summarize", "repro.core.summary", "summarize", None),
    ("core.table2", "repro.core.versions", "table2", None),
    ("core.packet_mix", "repro.core.packet_mix", "packet_mix", None),
    ("core.table4", "repro.core.scid_stats", "table4", None),
    ("core.timing_profiles", "repro.core.timing", "timing_profiles", None),
    (
        "core.top_length_signatures",
        "repro.core.packet_mix",
        "top_length_signatures",
        None,
    ),
    ("core.report.render_table", "repro.core.report", "render_table", None),
    ("core.report.render_histogram", "repro.core.report", "render_histogram", None),
    (
        "stream.poll",
        "repro.stream.live",
        "PcapFollower.poll",
        _count_result("stream.poll.rows"),
    ),
    (
        "stream.feed",
        "repro.stream.reducers",
        "StreamAnalyses.feed",
        _count_result("stream.feed.rows"),
    ),
    ("stream.publish", "repro.stream.reducers", "StreamAnalyses.publish", None),
)

#: Every module the stages run, imported before patching so each
#: by-name import of a wrapped function is found and replaced.
MODULES = (
    "repro.cli",
    "repro.simnet.shard",
    "repro.stream",
    "repro.stream.live",
    "repro.capstore.build",
    "repro.capstore.cache",
)


def _count_engine_sends(recorder: Recorder, cls) -> None:
    """Count datagrams each engine hands to its send callback."""
    original = cls.__init__

    @functools.wraps(original)
    def __init__(self, *args, **kwargs):
        original(self, *args, **kwargs)
        send = self._send

        def counted(datagram):
            recorder.counts["server.engine.datagrams_out"] += 1
            return send(datagram)

        self._send = counted

    cls.__init__ = __init__


def install(recorder: Recorder) -> None:
    """Wrap every boundary in :data:`TARGETS` for the rest of the process."""
    for module in MODULES:
        importlib.import_module(module)
    for name, module_name, attribute, hook in TARGETS:
        module = importlib.import_module(module_name)
        owner_name, _, function_name = attribute.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = owner.__dict__[function_name] if owner_name else getattr(
            module, function_name
        )
        if inspect.isgeneratorfunction(original):
            wrapped = _wrap_generator(recorder, name, original, hook)
        else:
            wrapped = _wrap_call(recorder, name, original, hook)
        if owner_name:
            setattr(owner, function_name, wrapped)
            continue
        for loaded in list(sys.modules.values()):
            if getattr(loaded, "__name__", "").startswith("repro") and (
                getattr(loaded, function_name, None) is original
            ):
                setattr(loaded, function_name, wrapped)
    from repro.server.engine import QuicServerEngine

    _count_engine_sends(recorder, QuicServerEngine)
