"""Streaming analysis plane: watch a measurement while it runs.

The batch plane (``repro.capstore`` → ``repro analyze``) dissects a
finished pcap once and renders the paper's tables; this package is its
live twin.  ``live`` follows a *growing* capture — polling the file,
dissecting only newly completed records, appending into the same
columnar :class:`~repro.capstore.CaptureTable` a batch pass would build
— and ``reducers`` feeds the ``repro.core`` column reducers (version
mix, packet-class mix, SCID structure, off-net share) plus row rates
per row batch, publishing them into a
:class:`~repro.obs.MetricsRegistry` so ``--prom-file``/``--prom-port``
export them while the run is still in flight.  ``tail`` holds the
generic follow-a-file primitives (JSONL traces, snapshot files).

Because the follower appends into a real ``CaptureTable``, a live run
that reaches the end of its input holds *exactly* the table a batch run
would have built — so the final ``repro live`` render is byte-for-byte
the ``repro analyze`` output.
"""

from repro.stream.live import PcapFollower, render_dashboard
from repro.stream.reducers import StreamAnalyses
from repro.stream.tail import JsonlTail, SnapshotTail

__all__ = [
    "JsonlTail",
    "PcapFollower",
    "SnapshotTail",
    "StreamAnalyses",
    "render_dashboard",
]
