#!/usr/bin/env python3
"""Pipeline benchmark: whole ``repro`` commands, timed as a user runs them.

Usage (from the root of a checkout; nothing needs building)::

    python3 pipebench/run.py --workload month --seed 7 --seconds 60 --trace 0
    python3 pipebench/run.py --workload all          # every workload in turn

``--trace 0`` times fresh processes, serially, one at a time: each cycle
runs ``simulate`` → cold ``index`` → warm ``analyze --tables 1 2 3 4 rto
lengths`` on the workload's capture, then a live session that follows
the same capture appended chunk by chunk (closed loop, then an open loop
at a fixed offered rate).  Cycles repeat until ``--seconds`` is spent.
Every time is scaled to the reference machine's speed (see
:func:`measured_run`) and reported as the median over the cycles.  ``--trace 1``
instead runs each stage in-process twice per pass — once with every
layer boundary wrapped by :mod:`spans`, once bare — and reports per-layer
self times, exact counts, each stage's unattributed share and the
tracing overhead.

Every command and check counts as one attempted operation.  Outputs
are checked on every run: the simulated record count equals the index's
``total_records``, the pcap and the analyze render repeat byte for byte
across cycles, the live session's final render equals the batch render,
and at the default seed and scale both digests equal ``digests.json``.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name → value and unit).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
# The sibling modules are imported by name; an interpreter started with
# PYTHONSAFEPATH set leaves the script's directory off sys.path.
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import attribution  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: (metric, unit) printed by an untraced run, in BENCHMARK.json order.
END_TO_END = (
    ("setup_s", "s"),
    ("simulate_rps", "records/s"),
    ("index_rps", "records/s"),
    ("analyze_s", "s"),
    ("pipeline_rps", "records/s"),
    ("live_rps", "records/s"),
    ("live_lag_p50_ms", "ms"),
    ("live_lag_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
#: ``live_lag_tail_ms`` percentile over every open-loop chunk of a run: a
#: run has at least two passes of at least 200 chunks, so at least 20
#: chunks lie beyond it.  A fixed percentile keeps runs comparable.
TAIL_PERCENTILE = 95
#: A traced run whose overhead reads below minus the timing metrics' bound
#: measured noise, not tracing: it is counted as a failed operation.
OVERHEAD_FLOOR = -0.25
#: Every run repeats at least this many cycles (or traced passes), so
#: the exact counts can be compared between two passes at one seed.
MIN_CYCLES = 2
#: Wall-clock budget of one run, below the 180 s a run may take.
DEADLINE_S = 170.0


class Session:
    """Spawns the fresh processes of one run and counts operations."""

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.started = time.monotonic()
        self.env = dict(os.environ)
        source = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (source, os.environ.get("PYTHONPATH")))
        )
        # The render digests are of UTF-8 bytes, and the CLI prints
        # non-ASCII text: a locale whose encoding lacks it would make the
        # commands fail or change what is digested.
        self.env["PYTHONIOENCODING"] = "utf-8"

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print("FAILED: %s" % what, file=sys.stderr)
        return ok

    def run(self, label: str, argv: list) -> subprocess.CompletedProcess:
        """Run ``argv`` to completion; a non-zero exit is a failed operation."""
        timeout = max(5.0, DEADLINE_S - (time.monotonic() - self.started))
        try:
            proc = subprocess.run(
                argv,
                cwd=ROOT,
                env=self.env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            self.check(False, "%s: timed out after %.0f s" % (label, timeout))
            raise SystemExit(1)
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
        self.check(
            proc.returncode == 0,
            "%s: exit %d %s" % (label, proc.returncode, " | ".join(tail)),
        )
        return proc

    def child(self, label: str, mode: str, *args) -> tuple:
        """One :mod:`child` process: ``(stdout, wall_s, report)``."""
        report = os.path.join(self.workdir, "report.json")
        if os.path.exists(report):
            os.unlink(report)
        spawned = time.monotonic()
        argv = [sys.executable, CHILD, report, repr(spawned), mode, *map(str, args)]
        proc = self.run(label, argv)
        wall = time.monotonic() - spawned
        if proc.returncode != 0 or not os.path.exists(report):
            raise Failed(label)
        with open(report) as fileobj:
            return proc.stdout, wall, json.load(fileobj)


class Failed(Exception):
    """A command failed; the run stops and reports what it measured."""


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fileobj:
        for block in iter(lambda: fileobj.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def remove(*paths: str) -> None:
    for path in paths:
        if os.path.isdir(path):
            shutil.rmtree(path)
        elif os.path.exists(path):
            os.unlink(path)


def parse_int(pattern: str, text: bytes) -> int:
    match = re.search(pattern, text.decode(errors="replace"))
    return int(match.group(1)) if match else -1


def pinned_digests(workload: str, seed: int, scale: float):
    """``{"pcap", "analyze"}`` pinned for this input, or None if unpinned."""
    with open(os.path.join(HERE, "digests.json")) as fileobj:
        pinned = json.load(fileobj)
    entry = pinned["workloads"]["month" if workload == "live" else workload]
    if seed != pinned["seed"] or scale != entry["scale"]:
        return None
    return entry


def simulate(session: Session, workload: str, seed: int, scale: float, pcap: str):
    """One simulate command on a clean slate: ``(wall_s, records, setup_s)``."""
    remove(pcap, pcap + ".capidx", pcap + ".progress")
    if workloads.WORKLOADS[workload].cli_simulate:
        argv = ["simulate", pcap, "--scale", scale, "--seed", seed]
        out, wall, report = session.child("simulate", "cli", *argv)
        records = parse_int(r"Wrote (\d+) captured", out)
    else:
        out, wall, report = session.child(
            "simulate", "simulate", workload, seed, scale, pcap
        )
        records = report["records"]
    return wall, records, report["setup_s"]


def check_digests(session, workload, seed, scale, pcap_digests, render_digests):
    session.check(
        len(pcap_digests) == 1,
        "pcap differs between runs of one seed: %s" % sorted(pcap_digests),
    )
    session.check(
        len(render_digests) == 1,
        "analyze render differs between runs of one seed: %s" % sorted(render_digests),
    )
    pinned = pinned_digests(workload, seed, scale)
    if pinned is not None:
        session.check(
            pcap_digests == {pinned["pcap"]},
            "pcap sha256 %s != pinned %s" % (sorted(pcap_digests), pinned["pcap"]),
        )
        session.check(
            render_digests == {pinned["analyze"]},
            "analyze sha256 %s != pinned %s"
            % (sorted(render_digests), pinned["analyze"]),
        )


def percentile(values: list, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def measured_run(session, workload, seed, scale, seconds) -> dict:
    """Untraced cycles of whole commands: every end-to-end metric.

    A reference sample (:func:`reference.seconds`) is taken before every
    command and once after the last.  A command's slowdown is the mean of
    the two samples around it over :data:`reference.REFERENCE_S`; its times are
    divided by it and its rates multiplied, so every sample reads as on
    the reference machine.  Each pass of a live session is scaled by the
    samples the session takes around that pass.  The raw medians are
    printed alongside.
    """
    spec = workloads.WORKLOADS[workload]
    pcap = os.path.join(session.workdir, "capture.pcap")
    references: list = []
    cycles: list = []
    pcap_digests: set = set()
    render_digests: set = set()
    start = time.monotonic()
    try:
        while True:
            cycle_start = time.monotonic()
            references.append(reference.seconds())
            sim_s, records, setup = simulate(session, workload, seed, scale, pcap)
            setups = [setup]
            pcap_digests.add(sha256_file(pcap))
            references.append(reference.seconds())
            out, index_s, report = session.child("index", "cli", "index", pcap)
            setups.append(report["setup_s"])
            indexed = parse_int(r"from (\d+) records", out)
            session.check(
                indexed == records,
                "simulate wrote %d records, index total_records %d" % (records, indexed),
            )
            references.append(reference.seconds())
            out, analyze_s, report = session.child(
                "analyze", "cli", "analyze", pcap, "--tables", *workloads.TABLES
            )
            setups.append(report["setup_s"])
            render = hashlib.sha256(out).hexdigest()
            render_digests.add(render)
            references.append(reference.seconds())
            _out, _wall, live = session.child(
                "live", "live", workload, seed, pcap,
                os.path.join(session.workdir, "live.pcap"),
            )
            setups.append(live["setup_s"])
            for loop in live["closed"] + [live["open"]]:
                session.check(
                    loop["records"] == records,
                    "live pass absorbed %d of %d records" % (loop["records"], records),
                )
                session.check(
                    loop["render_sha256"] == render,
                    "live pass final render differs from batch analyze",
                )
            cycles.append((records, setups, (sim_s, index_s, analyze_s), live))
            elapsed = time.monotonic() - start
            if len(cycles) >= MIN_CYCLES and elapsed + (time.monotonic() - cycle_start) > seconds:
                break
    except Failed:
        pass
    references.append(reference.seconds())
    check_digests(session, workload, seed, scale, pcap_digests, render_digests)
    if not cycles:
        return {}
    slowdowns = [
        reference.slowdown(references[k], references[k + 1])
        for k in range(len(references) - 1)
    ]
    samples = {name: ([], []) for name, _unit in END_TO_END}  # (raw, scaled)

    def add(name, raw, slowdown, rate=False):
        samples[name][0].append(raw)
        samples[name][1].append(raw * slowdown if rate else raw / slowdown)

    closed = [0, 0.0, 0.0]  # records, raw seconds, scaled seconds
    lags: list = []
    late: list = []
    for index, (records, setups, walls, live) in enumerate(cycles):
        slow = slowdowns[4 * index : 4 * index + 4]
        for setup, slowdown in zip(setups, slow):
            add("setup_s", setup, slowdown)
        sim_s, index_s, analyze_s = walls
        add("simulate_rps", records / sim_s, slow[0], rate=True)
        add("index_rps", records / index_s, slow[1], rate=True)
        add("analyze_s", analyze_s, slow[2])
        samples["pipeline_rps"][0].append(records / sum(walls))
        samples["pipeline_rps"][1].append(
            records / sum(wall / slowdown for wall, slowdown in zip(walls, slow))
        )
        inner = live["references"]
        for k, loop in enumerate(live["closed"]):
            closed[0] += loop["records"]
            closed[1] += loop["elapsed_s"]
            closed[2] += loop["elapsed_s"] / reference.slowdown(inner[k], inner[k + 1])
        opened = reference.slowdown(inner[-2], inner[-1])
        lags.extend((lag, opened) for lag in live["open"]["lags_s"])
        late.extend(live["open"]["late_s"])
    samples["live_rps"] = ([closed[0] / closed[1]], [closed[0] / closed[2]])
    for name, pct in (("live_lag_p50_ms", 50), ("live_lag_tail_ms", TAIL_PERCENTILE)):
        samples[name] = (
            [1000 * percentile([lag for lag, _s in lags], pct)],
            [1000 * percentile([lag / slowdown for lag, slowdown in lags], pct)],
        )
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    samples["peak_rss_mb"] = ([peak], [peak])
    print(
        "%s: %d cycles of simulate → index → analyze → live on %d records; "
        "open loop at %.0f records/s, generator late p50 %.3f ms, max %.3f ms; "
        "reference task %.3fx its reference time (median of %d samples, range "
        "%.3f–%.3f)"
        % (workload, len(cycles), cycles[-1][0], spec.offered_rps,
           1000 * statistics.median(late), 1000 * max(late),
           statistics.median(references) / reference.REFERENCE_S, len(references),
           min(references) / reference.REFERENCE_S, max(references) / reference.REFERENCE_S)
    )
    notes = {
        "live_rps": "records over the closed-loop time of %d passes"
        % sum(len(live["closed"]) for *_rest, live in cycles),
        "live_lag_p50_ms": "p50 of %d chunk lags" % len(lags),
        "live_lag_tail_ms": "p%d of %d chunk lags" % (TAIL_PERCENTILE, len(lags)),
        "peak_rss_mb": "max over every process of the run, not scaled",
    }
    metrics = {}
    for name, unit in END_TO_END:
        raw, scaled = samples[name]
        value = statistics.median(scaled)
        metrics[name] = {"value": value, "unit": unit}
        note = notes.get(name, "median of %d, scaled range %.4g–%.4g" % (
            len(scaled), min(scaled), max(scaled)))
        print("  %-18s %12.4f %-10s raw %.4g: %s"
              % (name, value, unit, statistics.median(raw), note))
    return metrics


def traced_run(session, workload, seed, scale, seconds) -> dict:
    """Traced and bare in-process stages: every per-layer metric."""
    pcap = os.path.join(session.workdir, "capture.pcap")
    stages = ("live",) if workload == "live" else ("simulate", "index", "analyze")
    passes = []
    breakdowns = []
    overheads = []
    pcap_digests: set = set()
    render_digests: set = set()
    start = time.monotonic()
    try:
        if workload == "live":
            simulate(session, workload, seed, scale, pcap)
            pcap_digests.add(sha256_file(pcap))
        while True:
            pass_start = time.monotonic()
            loaded = {}
            walls = {True: 0.0, False: 0.0}
            order = (True, False) if len(passes) % 2 == 0 else (False, True)
            for stage in stages:
                for traced in order:
                    if stage == "simulate":
                        remove(pcap, pcap + ".capidx", pcap + ".progress")
                    elif stage == "index":
                        remove(pcap + ".capidx")
                    spans_path = os.path.join(session.workdir, stage + ".spans")
                    out, _wall, report = session.child(
                        "%s stage %s" % ("traced" if traced else "bare", stage),
                        "stage", stage, workload, seed, scale, pcap,
                        spans_path if traced else "-",
                    )
                    walls[traced] += report["wall_s"]
                    if stage == "simulate":
                        pcap_digests.add(sha256_file(pcap))
                    elif stage == "analyze":
                        render_digests.add(hashlib.sha256(out).hexdigest())
                    elif stage == "index" and traced:
                        index_out = out
                    if traced:
                        loaded[stage] = spans.load(spans_path)
            proc = session.run(
                "importtime",
                [sys.executable, "-X", "importtime", "-c", "import repro.cli, repro.stream"],
            )
            imports = attribution.parse_importtime(proc.stderr.decode(errors="replace"))
            overhead = walls[True] / walls[False] - 1
            overheads.append(overhead)
            passes.append(attribution.pass_metrics(loaded, imports, overhead))
            breakdowns.append(
                {stage: attribution.stage_breakdown(spans) for stage, (_h, spans) in loaded.items()}
            )
            if "index" in stages:
                check_funnel(session, passes[-1], index_out)
            elapsed = time.monotonic() - start
            if len(passes) >= MIN_CYCLES and elapsed + (time.monotonic() - pass_start) > seconds:
                break
    except Failed:
        pass
    if workload != "live":
        check_digests(session, workload, seed, scale, pcap_digests, render_digests)
    if not passes:
        return {}
    combined, mismatched = attribution.combine(passes)
    session.check(
        not mismatched and len(passes) >= MIN_CYCLES,
        "counts differ between passes at one seed: %s" % ", ".join(mismatched),
    )
    session.check(
        statistics.median(overheads) >= OVERHEAD_FLOOR,
        "tracing overhead %.3f below %.2f: the bare run was noise-dominated"
        % (statistics.median(overheads), OVERHEAD_FLOOR),
    )
    for breakdown in breakdowns:
        for stage, parts in breakdown.items():
            total = sum(parts["self"].values()) + parts["unattributed_s"]
            session.check(
                abs(total - parts["wall_s"]) <= 1e-6 * max(1.0, parts["wall_s"]),
                "%s: layer self times + unattributed %.6f != wall %.6f"
                % (stage, total, parts["wall_s"]),
            )
    print(
        "%s: %d traced passes over %s; tracing overhead %.1f%% (median)"
        % (workload, len(passes), ", ".join(stages), 100 * statistics.median(overheads))
    )
    for stage in stages:
        parts = breakdowns[0][stage]
        top = sorted(parts["self"].items(), key=lambda item: -item[1])[:6]
        print(
            "  %-8s wall %.3f s, unattributed %.1f%%; top self: %s"
            % (
                stage,
                parts["wall_s"],
                100 * parts["unattributed_s"] / parts["wall_s"],
                ", ".join("%s %.3f" % item for item in top),
            )
        )
    return {
        name: {"value": combined[name], "unit": unit}
        for name, unit, _better, _source in attribution.PER_LAYER
    }


def check_funnel(session, values: dict, index_out: bytes) -> None:
    """The traced classify funnel must equal what ``repro index`` reported."""
    match = re.search(
        r"(\d+) rows \((\d+) backscatter, (\d+) scans\) from (\d+) records",
        index_out.decode(errors="replace"),
    )
    expected = tuple(int(group) for group in match.groups()) if match else None
    kept_bs = values["telescope.classify.kept.backscatter"]
    kept_scan = values["telescope.classify.kept.scan"]
    observed = (
        kept_bs + kept_scan,
        kept_bs,
        kept_scan,
        values["telescope.classify.record.calls"],
    )
    session.check(
        expected == observed,
        "traced classify funnel %s != index output %s" % (observed, expected),
    )


def run_workload(args, workload: str) -> tuple:
    workdir = os.path.join(ROOT, ".pipebench_work", "%s-%d" % (workload, os.getpid()))
    remove(workdir)
    os.makedirs(workdir)
    session = Session(workdir)
    try:
        session.run(
            "compileall",
            [sys.executable, "-m", "compileall", "-q", os.path.join(ROOT, "src", "repro")],
        )
        run = traced_run if args.trace else measured_run
        scale = args.scale if args.scale is not None else workloads.WORKLOADS[workload].scale
        metrics = run(session, workload, args.seed, scale, args.seconds)
    finally:
        remove(workdir)
    return session, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=("all", *workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=None,
        help="traffic scale instead of the workload's own (digests are "
        "pinned only at the workload's own)",
    )
    args = parser.parse_args(argv)
    for stream in (sys.stdout, sys.stderr):
        stream.reconfigure(errors="backslashreplace")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print("pipebench: no repro sources under %s/src" % ROOT, file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        session, found = run_workload(args, name)
        attempted += session.attempted
        failed += session.failed
        expected = attribution.PER_LAYER if args.trace else END_TO_END
        attempted += 1
        if len(found) != len(expected):
            failed += 1
        prefix = name + "." if len(names) > 1 else ""
        metrics.update({prefix + key: value for key, value in found.items()})
    correct = failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
