"""Tests of the benchmark itself: teardown, absent stats fields, the reference.

Run from the repository root::

    python3 -m pytest -q perfbench/selftest.py

They start real servers with short ``--seconds`` and assert that no process
the benchmark started outlives it: after a clean run, after a failure
injected mid-run, and after SIGTERM or SIGINT to the benchmark.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import loadgen  # noqa: E402
import procs  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402

RUN = [sys.executable, os.path.join(HERE, "run.py")]


def process_table():
    """``{pid: (ppid, state)}`` of every process visible in /proc."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        table[int(entry)] = (int(fields[1]), fields[0])
    return table


def descendants(root):
    table = process_table()
    found, frontier = set(), {root}
    while frontier:
        frontier = {pid for pid, (ppid, _) in table.items() if ppid in frontier} - found
        found |= frontier
    return found


def alive(pid):
    state = process_table().get(pid)
    return state is not None and state[1] not in ("Z", "X")


def watch(proc, until, timeout=120.0):
    """Poll ``proc``'s descendants until ``until(pids)`` or it exits; return all seen."""
    seen = set()
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        seen |= descendants(proc.pid)
        if until(seen) or proc.poll() is not None:
            return seen
        time.sleep(0.05)
    return seen


def serving(pids):
    for pid in pids:
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                if b"serve" in handle.read():
                    return True
        except OSError:
            pass
    return False


def assert_all_gone(pids):
    deadline = time.monotonic() + 15.0
    while time.monotonic() < deadline and any(alive(pid) for pid in pids):
        time.sleep(0.1)
    assert not [pid for pid in pids if alive(pid)], "a child outlived the benchmark"


def start_bench(workload="warm_socket", seconds="3"):
    return subprocess.Popen(
        RUN + ["--workload", workload, "--seed", "3", "--seconds", seconds, "--trace", "0"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def test_clean_run_is_correct_and_leaves_no_child():
    bench = start_bench()
    seen = watch(bench, lambda pids: False)
    out, err = bench.communicate(timeout=180)
    assert bench.returncode == 0, err
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert seen, "the benchmark started no child"
    assert_all_gone(seen)


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
def test_signal_to_benchmark_stops_every_child(signum):
    bench = start_bench(seconds="30")
    seen = watch(bench, serving)
    assert serving(seen), "no server started"
    bench.send_signal(signum)
    out, _ = bench.communicate(timeout=60)
    assert bench.returncode != 0
    assert '"metrics"' not in out
    assert_all_gone(seen)


def test_failure_mid_run_stops_every_child(monkeypatch):
    started = []
    original_init = procs.Child.__init__

    def recording_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        started.append(self.pid)

    def failing_open(*args, **kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(procs.Child, "__init__", recording_init)
    monkeypatch.setattr(loadgen, "run_open", failing_open)
    with pytest.raises(RuntimeError, match="injected failure"):
        run.main(["--workload", "warm_socket", "--seed", "1", "--seconds", "3"])
    assert started
    assert procs.live_children() == []
    assert_all_gone(started)


def test_without_program_sources_exits_nonzero_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold_engine", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def traced_figures(stats):
    layers = {"optimizer": {"calls": 4, "wall_s": 0.04, "cpu_s": 0.03, "items": {}}}
    return {
        "spans": {"layers": layers, "absent": {}},
        "stats": stats,
        "phases": {"lo": {"late_p95_ms": 0.2, "backlog_end": 1, "client_ms": 60.0}},
        "iqm_ms": 11.0,
    }


def test_stats_without_scheduler_fields_report_absent():
    before = {"requests": 1, "rejected": 0, "queue_peak": 2}
    after = {"requests": 5, "rejected": 0, "queue_peak": 2}
    stats = run.stats_delta(before, after)
    assert "waves" not in stats and "cross_request_waves" not in stats
    values, absent = run.per_layer("warm_socket", {"iqm_ms": 10.0}, traced_figures(stats))
    for name in ("scheduler.waves", "scheduler.cross_request_share"):
        assert name not in values
        assert "waves" in absent[name]
    assert values["service.rejected"] == 0
    assert values["optimizer.wall_ms"] == pytest.approx(10.0)
    assert values["trace.overhead_pct"] == pytest.approx(10.0)


def test_stats_with_scheduler_fields_report_them():
    stats = run.stats_delta(
        {"waves": 10, "cross_request_waves": 0, "rejected": 0},
        {"waves": 18, "cross_request_waves": 2, "rejected": 0, "queue_peak": 3},
    )
    values, absent = run.per_layer("warm_socket", {"iqm_ms": 10.0}, traced_figures(stats))
    assert values["scheduler.waves"] == pytest.approx(2.0)
    assert values["scheduler.cross_request_share"] == pytest.approx(0.25)
    assert values["shard.queue_peak"] == 3
    assert not absent


def test_reference_verdicts():
    reference = ref.load()
    key = reference["warm_mix"][0]
    expected = reference["configs"][key]
    good = {"status": "ok", "timed_out": False, "plan_digests": list(expected["plan_digests"])}
    assert ref.verdict(expected, good) == "ok"
    assert ref.verdict(expected, dict(good, plan_digests=good["plan_digests"][:-1])) == "wrong"
    assert ref.verdict(expected, dict(good, timed_out=True)) == "wrong"
    assert ref.verdict(expected, {"status": "overloaded"}) == "refused"
    assert ref.verdict(expected, {"status": "error"}) == "failed"
    assert ref.verdict(expected, None) == "failed"
    assert len(reference["cold_grid"]) >= 100
    assert not set(reference["churn_pool"]) & set(reference["warm_mix"])
