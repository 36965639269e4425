"""Load generator: open-loop and closed-loop JSONL traffic over one connection.

One process, two threads: the caller's thread sends, a receiver thread reads
responses and stamps their arrival.  Open-loop latency is timed from each
request's *due* time, so a stalled generator or a queue in the server
shows up as latency rather than as a lower send rate; how late the sender
ran is reported beside it.
"""

from __future__ import annotations

import json
import math
import socket
import statistics
import threading
import time

#: Seconds to wait for the responses still outstanding when a phase ends.
DRAIN_TIMEOUT_S = 60.0


class Outcome:
    """One request: what was sent, when it was due, and how it came back."""

    __slots__ = ("rid", "key", "cls", "due", "sent", "received", "record", "verdict")

    def __init__(self, rid, key, cls, due):
        self.rid = rid
        self.key = key
        self.cls = cls
        self.due = due
        self.sent = None
        self.received = None
        self.record = None
        self.verdict = None


class Connection:
    """A JSONL connection whose receiver thread matches responses by ``id``."""

    def __init__(self, port, host="127.0.0.1"):
        self.sock = socket.create_connection((host, port), timeout=10.0)
        self.sock.settimeout(None)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self.sock.makefile("rb")
        self._pending = {}
        self._lock = threading.Lock()
        self._arrived = threading.Condition(self._lock)
        self.closed = False
        self._thread = threading.Thread(target=self._receive, name="loadgen-recv", daemon=True)
        self._thread.start()

    def _receive(self):
        try:
            for raw in self._reader:
                now = time.perf_counter()
                record = json.loads(raw)
                with self._lock:
                    outcome = self._pending.pop(record.get("id"), None)
                    if outcome is not None:
                        outcome.received = now
                        outcome.record = record
                    self._arrived.notify_all()
        except (OSError, ValueError):
            pass
        finally:
            with self._lock:
                self.closed = True
                self._arrived.notify_all()

    def send(self, outcome, line):
        with self._lock:
            self._pending[outcome.rid] = outcome
        outcome.sent = time.perf_counter()
        self.sock.sendall(line)

    def outstanding(self):
        with self._lock:
            return len(self._pending)

    def wait_outstanding(self, at_most, timeout):
        """Block until at most ``at_most`` requests are unanswered (or timeout)."""
        deadline = time.perf_counter() + timeout
        with self._lock:
            while len(self._pending) > at_most and not self.closed:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    return False
                self._arrived.wait(remaining)
            return len(self._pending) <= at_most

    def call(self, record, timeout=30.0):
        """Send one control record and wait for its reply (e.g. ping, stats)."""
        outcome = Outcome(record["id"], None, "control", time.perf_counter())
        self.send(outcome, (json.dumps(record) + "\n").encode("utf-8"))
        deadline = time.perf_counter() + timeout
        with self._lock:
            while outcome.record is None and not self.closed:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                self._arrived.wait(remaining)
        if outcome.record is None:
            raise TimeoutError(f"no reply to {record.get('op')!r} within {timeout} s")
        return outcome.record

    def close(self):
        """Half-close, then close; the receiver thread ends on EOF."""
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
        self._thread.join(timeout=10.0)


class RequestMaker:
    """Encodes request lines for configs, with ids unique across a run."""

    def __init__(self, configs, prefix="r"):
        self._configs = configs
        self._prefix = prefix
        self._serial = 0

    def make(self, key, cls, due):
        self._serial += 1
        rid = f"{self._prefix}{self._serial}"
        config = self._configs[key]
        record = {
            "id": rid,
            "workload": config["workload"],
            "params": config["params"],
            "strategy": config["strategy"],
        }
        return Outcome(rid, key, cls, due), (json.dumps(record) + "\n").encode("utf-8")


def poisson_schedule(rng, rate, duration):
    """Arrival offsets (s) of a Poisson process at ``rate``/s over ``duration`` s."""
    offsets, t = [], 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= duration:
            return offsets
        offsets.append(t)


def run_open(conn, maker, plan):
    """Send ``plan`` = [(offset_s, key, cls)] on schedule; wait for every answer.

    Returns ``(outcomes, lateness_s, backlog_end)``: ``backlog_end`` is the
    number of requests unanswered when the last one was sent.
    """
    outcomes, lateness = [], []
    start = time.perf_counter() + 0.05
    for offset, key, cls in plan:
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        outcome, line = maker.make(key, cls, due)
        conn.send(outcome, line)
        lateness.append(outcome.sent - due)
        outcomes.append(outcome)
    backlog_end = conn.outstanding()
    conn.wait_outstanding(0, DRAIN_TIMEOUT_S)
    return outcomes, lateness, backlog_end


def run_sequential(conn, maker, keys):
    """Send ``keys`` one at a time, each after the previous answer."""
    outcomes = []
    for key in keys:
        outcome, line = maker.make(key, "sequential", time.perf_counter())
        conn.send(outcome, line)
        conn.wait_outstanding(0, DRAIN_TIMEOUT_S)
        outcomes.append(outcome)
    return outcomes


def run_closed(conn, maker, keys, depth, duration):
    """Keep ``depth`` requests outstanding for ``duration`` s, cycling ``keys``.

    Latency here is timed from the send.
    """
    outcomes = []
    stop_at = time.perf_counter() + duration
    index = 0
    while time.perf_counter() < stop_at:
        if not conn.wait_outstanding(depth - 1, DRAIN_TIMEOUT_S):
            break
        now = time.perf_counter()
        outcome, line = maker.make(keys[index % len(keys)], "closed", now)
        index += 1
        conn.send(outcome, line)
        outcomes.append(outcome)
    conn.wait_outstanding(0, DRAIN_TIMEOUT_S)
    return outcomes


def chunked_rate(series, per_chunk=25):
    """Median, over the consecutive chunks of ``per_chunk`` events of each
    series of event times, of each chunk's events per second.

    A transient stall of the host slows a few chunks, not the whole figure;
    no chunk spans the gap between two series, and a series shorter than a
    chunk is one chunk.
    """
    rates = []
    for times in series:
        ordered = sorted(times)
        step = min(per_chunk, len(ordered) - 1)
        if step < 1:
            continue
        for first in range(0, len(ordered) - step, step):
            span = ordered[first + step] - ordered[first]
            if span > 0:
                rates.append(step / span)
    return statistics.median(rates) if rates else None


def percentile(values, q):
    """Nearest-rank ``q``-quantile (0 < q < 1) of ``values``; ``None`` if empty."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def interquartile_mean(values):
    """Mean of the middle half of ``values``: a central latency that does not
    jump between the modes of a mix of request kinds, as the median can."""
    if not values:
        return None
    ordered = sorted(values)
    low, high = len(ordered) // 4, len(ordered) - len(ordered) // 4
    middle = ordered[low:high]
    return sum(middle) / len(middle)


def slowest_mean(values, share):
    """Mean of the slowest ``share`` (0 < share < 1) of ``values``, at least
    one: a tail that averages several samples instead of resting on the one
    a nearest-rank percentile picks."""
    if not values:
        return None
    ordered = sorted(values)
    tail = ordered[len(ordered) - max(1, math.ceil(share * len(ordered))):]
    return sum(tail) / len(tail)


def beyond(count, q):
    """How many of ``count`` samples lie above the nearest-rank ``q``-quantile."""
    return count - max(1, math.ceil(q * count))
