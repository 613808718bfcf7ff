"""Smoke test of the pipeline benchmark at a tiny scale.

Run from the root of a checkout::

    python3 -m pytest -q pipebench/test_smoke.py

It runs the benchmark itself (a few seconds per case) and checks the
contract of its output, not the speed of the program.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import attribution  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
TINY = "0.01"


def _bench(*args: str) -> tuple:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return proc, proc.stdout.strip().splitlines()


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fileobj:
        return json.load(fileobj)


def test_benchmark_json_matches_the_code():
    spec = _spec()
    for entry in spec["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _source in attribution.PER_LAYER
    ]
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]), metric["name"]


@pytest.mark.parametrize("workload", ["month", "scan"])
def test_untraced_run_prints_every_end_to_end_metric(workload):
    proc, lines = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", "0", "--scale", TINY)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    units = dict(run.END_TO_END)
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert NAME.match(name)
        assert metric["unit"] == units[name]
        assert metric["value"] > 0
    for name in units:  # the human summary names every metric too
        assert any(line.split()[:1] == [name] for line in lines[:-1]), name


@pytest.mark.parametrize("workload", ["backscatter", "live"])
def test_traced_run_attributes_every_stage(workload):
    proc, lines = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", "1", "--scale", TINY)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    # failed == 0 includes: counts repeat exactly between the two passes,
    # self times + unattributed time == stage wall time for every stage,
    # the traced classify funnel equals `repro index`, overhead sane.
    assert result["correct"] and result["failed"] == 0
    units = {name: unit for name, unit, _b, _s in attribution.PER_LAYER}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    values = {name: m["value"] for name, m in result["metrics"].items()}
    if workload == "live":
        assert values["stream.poll.calls"] > 0 and values["live.unattributed_share"] > 0
        assert values["simulate.unattributed_share"] == 0  # bypassed
    else:
        assert values["server.engine.on_datagram.calls"] > 0
        assert values["stream.poll.calls"] == 0  # bypassed
        assert 0 < values["index.unattributed_share"] < 1


def test_self_times_and_unattributed_sum_to_wall():
    spans = [
        ["stage.index", 0.0, 10.0, -1, None],
        ["capstore.build", 1.0, 9.0, 0, None],
        ["telescope.classify.record", 2.0, 5.0, 1, "kept.scan"],
        ["core.dissector.dissect", 2.5, 4.5, 2, None],
        ["quic.crypto.open", 3.0, 4.0, 3, None],
        ["telescope.classify.record", 6.0, 8.0, 1, "drop.acknowledged_scanner"],
        ["core.dissector.dissect", 6.5, 7.5, 5, None],
        ["quic.crypto.open", 6.6, 7.0, 6, None],
        ["quic.crypto.open", 7.0, 7.2, 6, None],
    ]
    parts = attribution.stage_breakdown(spans)
    assert parts["unattributed_s"] == pytest.approx(2.0)
    assert sum(parts["self"].values()) + parts["unattributed_s"] == pytest.approx(10.0)
    assert parts["self"]["capstore.build"] == pytest.approx(3.0)
    assert (parts["tries"], parts["validations"], parts["useful"]) == (3, 2, 1)


def test_pinned_digest_mismatch_is_a_failed_check(tmp_path):
    session = run.Session(str(tmp_path))
    seed, scale = workloads.DEFAULT_SEED, workloads.WORKLOADS["scan"].scale
    pinned = run.pinned_digests("scan", seed, scale)
    run.check_digests(session, "scan", seed, scale, {pinned["pcap"]}, {pinned["analyze"]})
    assert (session.attempted, session.failed) == (4, 0)
    run.check_digests(session, "scan", seed, scale, {pinned["pcap"]}, {"0" * 64})
    assert session.failed == 1


def test_refuses_to_run_without_the_program():
    bare = os.path.join(ROOT, ".pipebench_work", "bare-%d" % os.getpid())
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "pipebench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "pipebench/run.py", "--workload", "month", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
