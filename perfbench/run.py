"""The repository benchmark: one command, every metric by name and unit.

Run from the repository root::

    python3 perfbench/run.py --workload warm_socket --seed 1 --seconds 60 --trace 0

Workloads (the program is driven from outside, as a user would):

``warm_socket``
    A ``python -m repro.cli serve --port 0`` child, started with no tuning
    flags, is warmed on the seven-config EC1–EC3 mix, then receives, in three
    rounds, open-loop Poisson traffic of the mix at 20 q/s (``lo``) and 40 q/s
    (``hi``) and a closed loop with 2 requests outstanding (``closed``), and
    last 20 q/s where about 5% of requests are first contacts drawn once each
    from the frozen churn pool (``churn``: cache and memo inserts beside warm
    hits).  Each phase's figures are taken over all its rounds, so they see
    the host at three moments of the run, not in one window of it.
``cold_engine``
    A fresh child process imports the engine; for every config of the frozen
    cold grid, in seeded order, a forked copy of it calls
    ``CBOptimizer(catalog).optimize`` once with default knobs.  The grid is
    sent once per 15 s of ``--seconds``; a config's time is its best pass.

End-to-end metrics (``--trace 0``), the same names on both workloads:

==================  ===================================  ================================
metric              warm_socket                          cold_engine
==================  ===================================  ================================
``setup_s``         spawn to first pong, median of 9     spawn to ready, median of 9
``rss_mb``          server VmHWM                         largest optimizing copy's max RSS
``iqm_ms``          ``lo`` interquartile mean latency    interquartile mean optimize time
``tail_ms``         ``lo`` p95 latency                   mean of the slowest tenth
``throughput_qps``  ``closed`` median completion rate    configs optimized per second
==================  ===================================  ================================

Open-loop latency is timed from each request's due time.  The interquartile
mean stands in for the median: with seven request kinds of different cost,
the median jumps between their modes from run to run.

Every answer is checked against the plan digests frozen in
``reference.json``; a failed, refused or wrong answer counts as failed and
is charged :data:`loadgen.DRAIN_TIMEOUT_S` as its latency.  All load comes
from this process: one connection, a sender and a receiver thread.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload twice, untraced then with the layer timing of ``layers.py``
installed in the child, each for half of ``--seconds``, and prints the
per-layer metrics and the tracing overhead.  The line before the result
carries host metadata, per-phase counts and every figure behind the
metrics.  Every child runs in its own process group and is stopped in a
``finally`` block, also on an exception and on SIGTERM/SIGINT.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import loadgen  # noqa: E402
import procs  # noqa: E402
import reference as ref  # noqa: E402
from loadgen import Connection, RequestMaker, beyond, percentile  # noqa: E402

#: Program start-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 9
#: Seconds a child may take to announce that it is ready.
READY_TIMEOUT_S = 60.0
LO_RATE, HI_RATE, CHURN_RATE = 20.0, 40.0, 20.0
CLOSED_DEPTH = 2
FIRST_CONTACT_SHARE = 0.05
WARMUP_ROUNDS = 3
WARMUP_CLOSED_S = 2.0
#: Rounds of the ``lo``, ``hi`` and ``closed`` phases: the host's speed drifts
#: over tens of seconds, and one contiguous window per phase followed it.
WARM_ROUNDS = 3
#: Seconds of ``--seconds`` per pass over the cold grid (one pass takes ~12 s
#: on 2 CPUs; four passes in 60 s make the best-of-passes times steady).
COLD_PASS_S = 15.0
#: Share of the cold grid, slowest first, that ``tail_ms`` averages.
COLD_TAIL_SHARE = 0.1
#: Latency charged to a failed, refused or wrong answer.
FAILED_MS = loadgen.DRAIN_TIMEOUT_S * 1000.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "rss_mb": "MB",
    "iqm_ms": "ms",
    "tail_ms": "ms",
    "throughput_qps": "1/s",
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (reported, exit code 1)."""


# ---------------------------------------------------------------------- #
# host metadata
# ---------------------------------------------------------------------- #
def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest():
    """SHA-256 over the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for directory, subdirs, files in os.walk(SRC):
        subdirs[:] = sorted(d for d in subdirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, SRC).encode("utf-8"))
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def host_metadata(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
    }


# ---------------------------------------------------------------------- #
# children
# ---------------------------------------------------------------------- #
def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # String hashing decides set and dict order, and with it how much search
    # the engine does: with a random hash seed per process, the same cold
    # grid takes from 94 to 123 ms (interquartile mean) from run to run.  A
    # fixed seed makes every run, and the parent and child commits, do the
    # same work.
    env["PYTHONHASHSEED"] = "0"
    return env


class Server:
    """One ``repro.cli serve --port 0`` child and the benchmark's connection to it."""

    def __init__(self, spans_path=None):
        if spans_path is None:
            argv = [sys.executable, "-m", "repro.cli", "serve", "--port", "0"]
        else:
            argv = [sys.executable, os.path.join(HERE, "traced_serve.py"), spans_path]
        self.child = procs.Child(argv, env=child_env(), cwd=ROOT)
        self.conn = None
        line = self.child.readline(READY_TIMEOUT_S)
        try:
            port = json.loads(line)["serving"]["port"]
        except (ValueError, KeyError, TypeError) as error:
            raise BenchError(f"server announced {line!r}: {error}") from error
        self.conn = Connection(port)
        self.conn.call({"op": "ping", "id": "ready"})
        self.ready_s = time.perf_counter() - self.child.started_at

    def stats(self, tag):
        return self.conn.call({"op": "stats", "id": f"stats-{tag}"}).get("stats", {})

    def reset_trace(self):
        os.kill(self.child.pid, signal.SIGUSR2)
        if json.loads(self.child.readline(READY_TIMEOUT_S)) != {"reset": True}:
            raise BenchError("traced server did not acknowledge the reset")

    def stop(self):
        """Close the client first, then stop the process group."""
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        self.child.stop()


class ColdChild:
    """A fresh ``cold_child.py`` process, fed one config at a time."""

    def __init__(self, spans_path=None):
        argv = [sys.executable, os.path.join(HERE, "cold_child.py")]
        if spans_path is not None:
            argv.append(spans_path)
        self.child = procs.Child(argv, env=child_env(), stdin=True, cwd=ROOT)
        if json.loads(self.child.readline(READY_TIMEOUT_S)) != {"ready": True}:
            raise BenchError("cold child did not announce readiness")
        self.ready_s = time.perf_counter() - self.child.started_at

    def call(self, record, timeout):
        self.child.proc.stdin.write(json.dumps(record) + "\n")
        self.child.proc.stdin.flush()
        return json.loads(self.child.readline(timeout))

    def stop(self):
        """Close stdin, so the child writes its spans and exits; then reap it."""
        try:
            self.child.proc.stdin.close()
            self.child.proc.wait(timeout=procs.TERM_GRACE_S)
        except (OSError, subprocess.TimeoutExpired):
            pass
        self.child.stop()


class Session:
    """What one benchmark run owns: its temp dir and the programs it started."""

    def __init__(self):
        scratch = os.path.join(ROOT, ".perfbench_tmp")
        os.makedirs(scratch, exist_ok=True)
        self.tmpdir = tempfile.mkdtemp(dir=scratch)
        self.programs = []

    def start(self, factory, spans_path=None):
        """Start the program ``SETUP_REPEATS`` times; keep the last one running.

        Returns ``(program, setup_times)``.
        """
        times = []
        for attempt in range(SETUP_REPEATS):
            last = attempt == SETUP_REPEATS - 1
            program = factory(spans_path if last else None)
            self.programs.append(program)
            times.append(program.ready_s)
            if not last:
                self.stop(program)
        return program, times

    def stop(self, program):
        if program in self.programs:
            self.programs.remove(program)
        program.stop()

    def close(self):
        """Stop every program (clients first), then every stray child."""
        for program in reversed(list(self.programs)):
            self.stop(program)
        procs.stop_all()
        shutil.rmtree(self.tmpdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.tmpdir))
        except OSError:
            pass


# ---------------------------------------------------------------------- #
# phase accounting
# ---------------------------------------------------------------------- #
class Tally:
    """Every request of a run, classified against the frozen reference."""

    def __init__(self, reference):
        self.configs = reference["configs"]
        self.counts = {"sent": 0, "ok": 0, "failed": 0, "refused": 0, "wrong": 0}
        self.examples = []

    def classify(self, outcomes):
        for outcome in outcomes:
            outcome.verdict = ref.verdict(self.configs[outcome.key], outcome.record)
            self.counts["sent"] += 1
            self.counts[outcome.verdict] += 1
            if outcome.verdict != "ok" and len(self.examples) < 5:
                self.examples.append(
                    {"id": outcome.rid, "key": outcome.key, "verdict": outcome.verdict,
                     "record": outcome.record}
                )
        return outcomes

    @property
    def failed(self):
        return self.counts["failed"] + self.counts["refused"] + self.counts["wrong"]


def latency_ms(outcome, origin):
    """A request's latency from its due or send time; failures are charged."""
    if outcome.verdict != "ok":
        return FAILED_MS
    start = outcome.due if origin == "due" else outcome.sent
    return (outcome.received - start) * 1000.0


def summarize(outcomes, origin, q=0.95, cls=None):
    """Counts and latency percentiles of one phase (or one class of it)."""
    chosen = [o for o in outcomes if cls is None or o.cls == cls]
    counts = {"sent": len(chosen), "ok": 0, "failed": 0, "refused": 0, "wrong": 0}
    for outcome in chosen:
        counts[outcome.verdict] += 1
    latencies = [latency_ms(o, origin) for o in chosen]
    return {
        "counts": counts,
        "n": len(latencies),
        "p50_ms": percentile(latencies, 0.5),
        "iqm_ms": loadgen.interquartile_mean(latencies),
        f"p{round(q * 100)}_ms": percentile(latencies, q),
        f"beyond_p{round(q * 100)}": beyond(len(latencies), q) if latencies else 0,
    }


def open_phase(tally, rounds, classes=("warm",)):
    """One summary of an open-loop phase's rounds: ``(plan, run_open(plan))``."""
    outcomes, lateness, backlog = [], [], 0
    for _, (sent, late, left) in rounds:
        outcomes += sent
        lateness += late
        backlog = max(backlog, left)
    tally.classify(outcomes)
    summary = {name: summarize(outcomes, "due", cls=name) for name in classes}
    summary["all"] = summarize(outcomes, "due")
    span = sum(plan[-1][0] for plan, _ in rounds if plan)
    summary["rate_qps"] = len(outcomes) / span if span > 0 else 0.0
    summary["late_p95_ms"] = percentile([late * 1000.0 for late in lateness], 0.95) or 0.0
    summary["backlog_end"] = backlog
    summary["client_ms"] = sum(
        (o.received - o.sent) * 1000.0 for o in outcomes if o.received is not None
    )
    return summary


def closed_phase(tally, rounds):
    """One summary of the closed loop's rounds (lists of outcomes)."""
    outcomes = [o for sent in rounds for o in sent]
    tally.classify(outcomes)
    summary = {"all": summarize(outcomes, "sent")}
    summary["throughput_qps"] = loadgen.chunked_rate(
        [[o.received for o in sent if o.verdict == "ok"] for sent in rounds]
    )
    summary["client_ms"] = sum(
        (o.received - o.sent) * 1000.0 for o in outcomes if o.received is not None
    )
    return summary


def warm_up(conn, maker, tally, mix):
    """Untimed: the mix one request at a time, then a short closed loop."""
    tally.classify(loadgen.run_sequential(conn, maker, mix * WARMUP_ROUNDS))
    tally.classify(loadgen.run_closed(conn, maker, mix, CLOSED_DEPTH, WARMUP_CLOSED_S))


def mix_plan(rng, keys, rate, duration):
    """Poisson arrivals; configs in shuffled rounds, so each seed sends the
    mix in equal shares (latency percentiles depend on the shares)."""
    offsets = loadgen.poisson_schedule(rng, rate, duration)
    order = []
    while len(order) < len(offsets):
        block = list(keys)
        rng.shuffle(block)
        order.extend(block)
    return [(offset, key, "warm") for offset, key in zip(offsets, order)]


def churn_plan(rng, reference, duration):
    """Open-loop plan at ``CHURN_RATE`` with 5% first contacts, none repeated.

    The first contacts are a stratified draw: the pool, ordered by frozen
    single-shot cost, is cut into one stratum per first contact and one
    config is drawn from each, so every seed sends a similar cost mix.
    """
    plan = mix_plan(rng, reference["warm_mix"], CHURN_RATE, duration)
    count = max(1, round(FIRST_CONTACT_SHARE * len(plan)))
    configs = reference["configs"]
    pool = sorted(reference["churn_pool"], key=lambda key: (configs[key]["single_shot_s"], key))
    if count > min(len(pool), len(plan)):
        raise BenchError(f"the churn pool of {len(pool)} configs cannot give {count} first contacts")
    bounds = [round(index * len(pool) / count) for index in range(count + 1)]
    firsts = [rng.choice(pool[low:high]) for low, high in zip(bounds, bounds[1:])]
    rng.shuffle(firsts)
    # One first contact per equal slice of the plan, at a seeded position in
    # it: first contacts spread over the phase instead of bunching by chance.
    slots = [int((index + rng.random()) * len(plan) / count) for index in range(count)]
    for position, key in zip(slots, firsts):
        plan[position] = (plan[position][0], key, "first")
    return plan


# ---------------------------------------------------------------------- #
# one pass of a workload: returns its figures
# ---------------------------------------------------------------------- #
def socket_pass(session, reference, rng, seconds, tally, traced):
    spans_path = os.path.join(session.tmpdir, "server-spans.json") if traced else None
    server, setups = session.start(Server, spans_path)
    maker = RequestMaker(reference["configs"], prefix="t" if traced else "u")
    mix = reference["warm_mix"]
    warm_up(server.conn, maker, tally, mix)
    if traced:
        server.reset_trace()
    before = server.stats("before")
    rounds = {"lo": [], "hi": [], "closed": []}
    for _ in range(WARM_ROUNDS):
        for name, rate in (("lo", LO_RATE), ("hi", HI_RATE)):
            plan = mix_plan(rng, mix, rate, seconds * 0.25 / WARM_ROUNDS)
            rounds[name].append((plan, loadgen.run_open(server.conn, maker, plan)))
        rounds["closed"].append(
            loadgen.run_closed(server.conn, maker, mix, CLOSED_DEPTH, seconds * 0.2 / WARM_ROUNDS)
        )
    phases = {
        "lo": open_phase(tally, rounds["lo"]),
        "hi": open_phase(tally, rounds["hi"]),
        "closed": closed_phase(tally, rounds["closed"]),
    }
    # Last, because first contacts grow the server's caches for good.
    plan = churn_plan(rng, reference, seconds * 0.3)
    phases["churn"] = open_phase(
        tally, [(plan, loadgen.run_open(server.conn, maker, plan))], ("warm", "first")
    )
    after = server.stats("after")
    rss = server.child.peak_rss_mb()
    session.stop(server)
    spans = load_spans(spans_path) if traced else None
    return {
        "setup_s": statistics.median(setups),
        "setup_each_s": setups,
        "rss_mb": rss,
        "iqm_ms": phases["lo"]["warm"]["iqm_ms"],
        "tail_ms": phases["lo"]["warm"]["p95_ms"],
        "throughput_qps": phases["closed"]["throughput_qps"],
        "phases": phases,
        "stats": stats_delta(before, after),
        "spans": spans,
    }


def cold_pass(session, reference, rng, seconds, tally, traced):
    """The cold grid, once per ``COLD_PASS_S`` of ``seconds`` (at least once).

    Each pass sends every config in its own seeded order.  A config's time
    is its best over the passes: host noise only ever adds time (one config
    can run 60% slower in one pass than in the next), and the passes see the
    host at different moments.  ``tail_ms`` is the mean of the slowest tenth
    of these times, not their p90: the p90 rests on one config's time and
    spread twice as far over seeds; it stays among the figures.
    """
    spans_path = os.path.join(session.tmpdir, "cold-spans.json") if traced else None
    child, setups = session.start(ColdChild, spans_path)
    outcomes, client_ms = [], 0.0
    for _ in range(max(1, round(seconds / COLD_PASS_S))):
        keys = list(reference["cold_grid"])
        rng.shuffle(keys)
        for key in keys:
            config = reference["configs"][key]
            outcome = loadgen.Outcome(f"c{len(outcomes)}", key, "cold", time.perf_counter())
            outcome.sent = outcome.due
            try:
                outcome.record = child.call(
                    {"id": outcome.rid, "workload": config["workload"],
                     "params": config["params"], "strategy": config["strategy"]},
                    timeout=loadgen.DRAIN_TIMEOUT_S,
                )
            except procs.ChildError as error:
                raise BenchError(f"cold child failed on {key}: {error}") from error
            outcome.received = time.perf_counter()
            client_ms += (outcome.received - outcome.sent) * 1000.0
            outcomes.append(outcome)
    session.stop(child)
    tally.classify(outcomes)
    rss = max((o.record.get("rss_mb", 0.0) for o in outcomes), default=None)
    best = {}
    for o in outcomes:
        ms = o.record["ms"] if o.verdict == "ok" else FAILED_MS
        best[o.key] = min(ms, best.get(o.key, ms))
    opt_ms = list(best.values())
    summary = {
        "counts": {"sent": len(outcomes), "ok": sum(o.verdict == "ok" for o in outcomes)},
        "n": len(opt_ms),
        "p50_ms": percentile(opt_ms, 0.5),
        "iqm_ms": loadgen.interquartile_mean(opt_ms),
        "p90_ms": percentile(opt_ms, 0.9),
        "beyond_p90": beyond(len(opt_ms), 0.9),
        "slowest_mean_ms": loadgen.slowest_mean(opt_ms, COLD_TAIL_SHARE),
        "passes": len(outcomes) // len(reference["cold_grid"]),
        "client_ms": client_ms,
    }
    return {
        "setup_s": statistics.median(setups),
        "setup_each_s": setups,
        "rss_mb": rss,
        "iqm_ms": summary["iqm_ms"],
        "tail_ms": summary["slowest_mean_ms"],
        "throughput_qps": len(opt_ms) / (sum(opt_ms) / 1000.0),
        "phases": {"cold": summary},
        "stats": {},
        "spans": load_spans(spans_path) if traced else None,
    }


def load_spans(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        raise BenchError(f"traced child left no readable spans at {path}: {error}") from error


def stats_delta(before, after):
    """The ``stats`` op fields used by the per-layer metrics, as run deltas.

    A field the server no longer reports is left out, never an error: the
    metrics built on it are then reported as absent.
    """
    delta = {}
    for field in ("requests", "rejected", "waves", "cross_request_waves"):
        if field in after and field in before:
            delta[field] = after[field] - before[field]
    if "queue_peak" in after:
        delta["queue_peak"] = after["queue_peak"]
    return delta


# ---------------------------------------------------------------------- #
# metrics
# ---------------------------------------------------------------------- #
#: Per-layer metrics of the traced run: (name, unit).  Times and work
#: counts are per request (per ``CBOptimizer.optimize`` call).
PER_LAYER = [
    ("protocol.decode_ms", "ms"),
    ("workloads.build_ms", "ms"),
    ("protocol.encode_ms", "ms"),
    ("service.submit_ms", "ms"),
    ("service.rejected", "count"),
    ("shard.queue_wait_ms", "ms"),
    ("shard.queue_peak", "count"),
    ("scheduler.waves", "count"),
    ("scheduler.cross_request_share", "ratio"),
    ("optimizer.wall_ms", "ms"),
    ("optimizer.cpu_ms", "ms"),
    ("optimizer.gil_wait_pct", "%"),
    ("chase.ms", "ms"),
    ("chase.closure_queries", "count"),
    ("chase.cache_hit_rate", "ratio"),
    ("backchase.ms", "ms"),
    ("backchase.subqueries_explored", "count"),
    ("backchase.plans_per_subquery", "ratio"),
    ("containment.checks", "count"),
    ("containment.ms", "ms"),
    ("memo.hit_rate", "ratio"),
    ("query.signature_calls", "count"),
    ("query.signature_ms", "ms"),
    ("gen.late_p95_ms", "ms"),
    ("gen.backlog_end", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.unaccounted_pct", "%"),
]


def ratio(numerator, denominator):
    return numerator / denominator if denominator else None


def per_layer(kind, untraced, traced):
    """Per-layer values from the traced pass, plus reasons for absent ones.

    Returns ``(values, absent)``; a value of ``None`` means the layer did no
    work on this workload (a ratio without a base), reported as 0.
    """
    spans = traced["spans"]
    layers = spans["layers"]
    absent = dict(spans.get("absent", {}))

    def layer(name):
        return layers.get(name, {"calls": 0, "wall_s": 0.0, "cpu_s": 0.0, "items": {}})

    def item(name, key):
        return layer(name)["items"].get(key, 0)

    requests = layer("optimizer")["calls"]
    per_request = lambda value: ratio(value, requests)  # noqa: E731
    ms = lambda seconds: per_request(seconds * 1000.0)  # noqa: E731
    chase_calls = layer("chase.cached")["calls"]
    memo_calls = layer("memo.check")["calls"]
    optimizer_cpu = layer("optimizer")["cpu_s"] + layer("scheduler.item")["cpu_s"]
    values = {
        "protocol.decode_ms": ms(layer("protocol.decode")["wall_s"]),
        "workloads.build_ms": ms(layer("workloads.build")["wall_s"]),
        "protocol.encode_ms": ms(layer("protocol.encode")["wall_s"]),
        "service.submit_ms": ms(layer("service.submit")["wall_s"]),
        "shard.queue_wait_ms": ratio(
            layer("shard.queue_wait")["wall_s"] * 1000.0, layer("shard.queue_wait")["calls"]
        ),
        "optimizer.wall_ms": ms(layer("optimizer")["wall_s"]),
        "optimizer.cpu_ms": ms(optimizer_cpu),
        "optimizer.gil_wait_pct": (
            100.0 * (1.0 - optimizer_cpu / layer("optimizer")["wall_s"])
            if layer("optimizer")["wall_s"]
            else None
        ),
        "chase.ms": ms(layer("chase.cached")["wall_s"] + item("chase.run", "direct_wall_s")),
        "chase.closure_queries": per_request(item("chase.run", "closure_queries")),
        "chase.cache_hit_rate": (
            1.0 - item("chase.run", "under_chase.cached") / chase_calls if chase_calls else None
        ),
        "backchase.ms": ms(layer("backchase")["wall_s"]),
        "backchase.subqueries_explored": per_request(item("backchase", "subqueries_explored")),
        "backchase.plans_per_subquery": ratio(
            item("backchase", "plans"), item("backchase", "subqueries_explored")
        ),
        "containment.checks": per_request(memo_calls + item("containment.search", "direct")),
        "containment.ms": ms(
            layer("memo.check")["wall_s"] + item("containment.search", "direct_wall_s")
        ),
        "memo.hit_rate": (
            1.0 - item("containment.search", "under_memo.check") / memo_calls
            if memo_calls
            else None
        ),
        "query.signature_calls": per_request(layer("query.signature")["calls"]),
        "query.signature_ms": ms(layer("query.signature")["wall_s"]),
    }
    stats = traced["stats"]
    if kind == "cold_engine":
        # No service: nothing is admitted, queued or scheduled.
        values.update({"service.rejected": 0, "shard.queue_peak": 0, "scheduler.waves": 0,
                       "scheduler.cross_request_share": None})
    else:
        for name, field in (("service.rejected", "rejected"), ("shard.queue_peak", "queue_peak")):
            if field in stats:
                values[name] = stats[field]
            else:
                absent[name] = f"the stats op reports no {field!r}"
        if "waves" in stats:
            values["scheduler.waves"] = per_request(stats["waves"])
            if "cross_request_waves" in stats:
                values["scheduler.cross_request_share"] = ratio(
                    stats["cross_request_waves"], stats["waves"]
                )
            else:
                absent["scheduler.cross_request_share"] = "the stats op reports no 'cross_request_waves'"
        else:
            absent["scheduler.waves"] = "the stats op reports no 'waves'"
            absent["scheduler.cross_request_share"] = "the stats op reports no 'waves'"
    open_phases = [p for p in traced["phases"].values() if "late_p95_ms" in p]
    values["gen.late_p95_ms"] = max((p["late_p95_ms"] for p in open_phases), default=0.0)
    values["gen.backlog_end"] = max((p["backlog_end"] for p in open_phases), default=0)
    values["trace.overhead_pct"] = 100.0 * (traced["iqm_ms"] / untraced["iqm_ms"] - 1.0)
    client_ms = sum(p["client_ms"] for p in traced["phases"].values())
    if kind == "cold_engine":
        inside = layer("workloads.build")["wall_s"] + layer("optimizer")["wall_s"]
    else:
        inside = sum(
            layer(name)["wall_s"]
            for name in ("protocol.decode", "service.submit", "shard.queue_wait",
                         "optimizer", "protocol.encode")
        )
    values["trace.unaccounted_pct"] = (
        100.0 * (1.0 - inside * 1000.0 / client_ms) if client_ms else None
    )
    return values, absent


def named_figures(kind, figures):
    """The workload's headline figures under their descriptive names."""
    out = {"setup_s": figures["setup_s"], "rss_mb": figures["rss_mb"]}
    phases = figures["phases"]
    if kind == "warm_socket":
        out.update(
            lo_p50_ms=phases["lo"]["warm"]["p50_ms"],
            lo_p95_ms=phases["lo"]["warm"]["p95_ms"],
            hi_p50_ms=phases["hi"]["warm"]["p50_ms"],
            hi_p95_ms=phases["hi"]["warm"]["p95_ms"],
            capacity_qps=phases["closed"]["throughput_qps"],
            churn_warm_p50_ms=phases["churn"]["warm"]["p50_ms"],
            churn_warm_p95_ms=phases["churn"]["warm"]["p95_ms"],
            churn_first_p50_ms=phases["churn"]["first"]["p50_ms"],
        )
    else:
        out.update(
            opt_p50_ms=phases["cold"]["p50_ms"],
            opt_p90_ms=phases["cold"]["p90_ms"],
            configs_per_s=figures["throughput_qps"],
        )
    return out


def run_pass(session, kind, reference, seed, seconds, tally, traced):
    rng = random.Random(seed)
    if kind == "cold_engine":
        return cold_pass(session, reference, rng, seconds, tally, traced)
    return socket_pass(session, reference, rng, seconds, tally, traced)


def measure(args, session):
    """Run the workload; returns ``(details, result)``."""
    reference = ref.load()
    tally = Tally(reference)
    details = {"meta": host_metadata(args)}
    if args.trace:
        untraced = run_pass(session, args.workload, reference, args.seed, args.seconds / 2, tally, False)
        traced = run_pass(session, args.workload, reference, args.seed, args.seconds / 2, tally, True)
        values, absent = per_layer(args.workload, untraced, traced)
        not_exercised = sorted(name for name, value in values.items() if value is None)
        units = dict(PER_LAYER)
        metrics = {
            name: {"value": 0.0 if value is None else value, "unit": units[name]}
            for name, value in values.items()
        }
        details.update(
            untraced=named_figures(args.workload, untraced),
            traced=named_figures(args.workload, traced),
            spans=traced["spans"],
            absent=absent,
            not_exercised=not_exercised,
            phases=traced["phases"],
        )
    else:
        figures = run_pass(session, args.workload, reference, args.seed, args.seconds, tally, False)
        metrics = {}
        for name, unit in END_TO_END_UNITS.items():
            value = figures[name]
            if value is None or not math.isfinite(value):
                raise BenchError(f"{name} was not measured: {value!r}")
            metrics[name] = {"value": value, "unit": unit}
        details.update(
            figures=named_figures(args.workload, figures),
            setup_each_s=figures["setup_each_s"],
            phases=figures["phases"],
        )
    details["counts"] = tally.counts
    details["failures"] = tally.examples
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.counts["sent"],
        "failed": tally.failed,
        "metrics": metrics,
    }
    return details, result


WORKLOADS = ("warm_socket", "cold_engine")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    previous = procs.install_signal_teardown()
    session = None
    try:
        session = Session()
        details, result = measure(args, session)
    except (BenchError, procs.ChildError, OSError, ValueError, TimeoutError) as error:
        print(f"perfbench: {type(error).__name__}: {error}", file=sys.stderr)
        return 1
    except procs.Interrupted as signal_name:
        print(f"perfbench: interrupted by {signal_name}", file=sys.stderr)
        return 1
    finally:
        # A second signal must not cut the teardown short.
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, signal.SIG_IGN)
        if session is not None:
            session.close()
        else:
            procs.stop_all()
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
