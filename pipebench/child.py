"""One fresh benchmark process: interpreter start, ``import repro.cli``, one job.

Usage::

    python3 pipebench/child.py REPORT T_SPAWN MODE ARGS...

``T_SPAWN`` is the parent's ``time.monotonic()`` just before it started
this process (the clock is system-wide), so ``setup_s`` in the JSON
report written to ``REPORT`` is interpreter start plus ``import
repro.cli`` — what every ``repro`` command pays before doing work.

Modes:

``cli ARGV...``
    ``repro.cli.main(ARGV)`` — exactly what ``python3 -m repro ARGV`` runs.
``simulate WORKLOAD SEED SCALE OUT``
    ``run_to_pcap`` on the workload's config (configs the CLI cannot
    express).
``live WORKLOAD SEED SOURCE PCAP``
    Follow ``SOURCE`` appended chunk by chunk to a fresh ``PCAP``:
    :data:`CLOSED_PASSES` closed-loop passes, then one open-loop pass at
    the workload's offered rate, with a reference sample before each
    pass and after the last.
``stage STAGE WORKLOAD SEED SCALE PCAP SPANS``
    Run one stage in-process and time it; with ``SPANS`` other than
    ``-`` every layer boundary is traced and the spans written there.
"""

import hashlib
import json
import os
import sys
import time

import repro.cli

_T_IMPORTED = time.monotonic()

# Imported by name from this directory, which PYTHONSAFEPATH leaves off
# sys.path.
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import reference  # noqa: E402
import workloads  # noqa: E402


#: Closed-loop passes per live session; their total time gives live_rps.
CLOSED_PASSES = 3


def _fresh(path: str) -> None:
    for stale in (path, path + ".capidx"):
        if os.path.exists(stale):
            os.unlink(stale)


def follow(data: bytes, path: str, chunks: list, due: list = None) -> dict:
    """Append ``data`` to ``path`` chunk by chunk while a follower absorbs it.

    The loop is the one ``repro live --quiet`` runs: ``PcapFollower.poll``,
    ``StreamAnalyses.feed`` of the new rows, ``publish`` of the gauges.
    Closed loop (``due`` is None): the next chunk is appended as soon as
    the previous one is absorbed.  Open loop: chunk *i* becomes due at
    ``due[i]`` seconds after the start whatever the follower is doing;
    every chunk already due is appended before the next poll, and its lag
    runs from its due time to the end of the poll that fed it.  The
    generator spins until a due time instead of sleeping: on a shared
    virtual machine a sleep can wake 10 ms late, and that delay, which no
    real writer process imposes on a follower, would land in every lag.
    """
    from repro.obs import MetricsRegistry
    from repro.stream import PcapFollower, StreamAnalyses

    _fresh(path)
    open(path, "wb").close()
    follower = PcapFollower(path)
    analyses = StreamAnalyses()
    metrics = MetricsRegistry()
    fed = 0
    lags = []
    late = []
    with open(path, "ab") as sink:
        start = time.perf_counter()
        i = 0
        while i < len(chunks):
            if due is None:
                batch = range(i, i + 1)
            else:
                now = time.perf_counter() - start
                while now < due[i]:
                    now = time.perf_counter() - start
                late.append(now - due[i])
                end = i + 1
                while end < len(chunks) and due[end] <= now:
                    end += 1
                batch = range(i, end)
            for j in batch:
                lo, hi = chunks[j]
                sink.write(data[lo:hi])
            sink.flush()
            i = batch[-1] + 1
            follower.poll()
            if follower.num_rows > fed:
                analyses.feed(follower.table, fed, follower.num_rows)
                fed = follower.num_rows
            analyses.publish(metrics)
            if due is not None:
                done = time.perf_counter() - start
                lags.extend(done - due[j] for j in batch)
        elapsed = time.perf_counter() - start
    follower.finish()
    render = repro.cli.render_analysis(follower.view(), set(workloads.TABLES))
    return {
        "elapsed_s": elapsed,
        "records": follower.stats.total_records,
        "rows": fed,
        "lags_s": lags,
        "late_s": late,
        "render_sha256": hashlib.sha256((render + "\n").encode()).hexdigest(),
    }


def live_passes(workload: str, seed: int, source: str, path: str) -> dict:
    with open(source, "rb") as fileobj:
        data = fileobj.read()
    chunks = workloads.chunk_ranges(workload, seed, len(data))
    ends = workloads.record_ends(data)
    due = []
    complete = 0
    for _lo, hi in chunks:
        while complete < len(ends) and ends[complete] <= hi:
            complete += 1
        due.append(complete / workloads.WORKLOADS[workload].offered_rps)
    # A session lasts seconds, longer than the machine holds one speed, so
    # each pass is scaled by the reference samples taken around it.
    references = [reference.seconds()]
    closed = []
    for _ in range(CLOSED_PASSES):
        closed.append(follow(data, path, chunks))
        references.append(reference.seconds())
    opened = follow(data, path, chunks, due)
    references.append(reference.seconds())
    return {"closed": closed, "open": opened, "references": references}


def run_stage(stage, workload, seed, scale, pcap, spans_path) -> dict:
    """Time one stage in-process, traced when ``spans_path`` is given."""
    from repro.quic.crypto.memo import memo_stats

    recorder = None
    if spans_path != "-":
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    if stage == "simulate":
        if workloads.WORKLOADS[workload].cli_simulate:
            argv = ["simulate", pcap, "--scale", str(scale), "--seed", str(seed)]
            job = lambda: repro.cli.main(argv)  # noqa: E731
        else:
            from repro.simnet.shard import run_to_pcap

            config = workloads.scenario_config(workload, seed, scale)
            job = lambda: run_to_pcap(config, pcap)  # noqa: E731
    elif stage == "index":
        job = lambda: repro.cli.main(["index", pcap])  # noqa: E731
    elif stage == "analyze":
        argv = ["analyze", pcap, "--tables", *workloads.TABLES]
        job = lambda: repro.cli.main(argv)  # noqa: E731
    else:
        with open(pcap, "rb") as fileobj:
            data = fileobj.read()
        chunks = workloads.chunk_ranges(workload, seed, len(data))
        job = lambda: follow(data, pcap + ".live", chunks)  # noqa: E731
    memo_before = memo_stats()["initial_keys"]
    if recorder is None:
        start = time.perf_counter()
        job()
        wall = time.perf_counter() - start
    else:
        root = recorder.begin("stage." + stage)
        job()
        recorder.end(root)
        wall = root[2] - root[1]
        memo_after = memo_stats()["initial_keys"]
        counts = recorder.counts
        for key in ("hits", "misses"):
            counts["quic.crypto.initial_keys.memo_" + key] += (
                memo_after[key] - memo_before[key]
            )
        for loop in recorder.instances.get("loop", {}).values():
            counts["simnet.eventloop.events"] += loop.events_processed
        for network in recorder.instances.get("network", {}).values():
            counts["simnet.network.delivered"] += network.stats.delivered
            counts["simnet.network.dropped_loss"] += network.stats.dropped_loss
            counts["simnet.network.dropped_unrouted"] += network.stats.dropped_unrouted
        recorder.dump(spans_path, "%s/%s/%d" % (workload, stage, seed))
    return {"wall_s": wall}


def main(argv: list) -> int:
    report_path, t_spawn, mode, *rest = argv
    report = {"setup_s": _T_IMPORTED - float(t_spawn)}
    code = 0
    if mode == "cli":
        code = repro.cli.main(rest)
    elif mode == "simulate":
        from repro.simnet.shard import run_to_pcap

        workload, seed, scale, out = rest
        config = workloads.scenario_config(workload, int(seed), float(scale))
        report["records"] = run_to_pcap(config, out)
        print("Wrote %d captured packets to %s" % (report["records"], out))
    elif mode == "live":
        workload, seed, source, path = rest
        report.update(live_passes(workload, int(seed), source, path))
    elif mode == "stage":
        stage, workload, seed, scale, pcap, spans_path = rest
        report.update(
            run_stage(stage, workload, int(seed), float(scale), pcap, spans_path)
        )
    else:
        raise SystemExit("child.py: unknown mode %r" % mode)
    with open(report_path, "w") as fileobj:
        json.dump(report, fileobj)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
