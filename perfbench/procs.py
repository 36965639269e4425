"""Child processes the benchmark starts, and their teardown.

Every child runs in its own session (so in its own process group).  Teardown
sends SIGTERM to the whole group, waits a bounded time, sends SIGKILL to the
group, reaps the child and closes its pipes.  Every started
child is registered, so :func:`stop_all` can run from a ``finally`` block,
after an exception or after a signal to the benchmark.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

#: Seconds a child gets to exit after SIGTERM before the group is killed.
TERM_GRACE_S = 5.0

_live = []
_live_lock = threading.Lock()


class ChildError(RuntimeError):
    """A child process failed to start or answered out of protocol."""


class Child:
    """One child process in its own session, with line-buffered stdout.

    ``stdin`` is a pipe only when ``stdin=True``; stderr goes to the
    benchmark's stderr so a crashing child leaves its traceback in the log.
    """

    def __init__(self, argv, env=None, stdin=False, cwd=None):
        self.argv = list(argv)
        self.started_at = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv,
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=None,
            env=env,
            cwd=cwd,
            text=True,
            bufsize=1,
            start_new_session=True,
        )
        with _live_lock:
            _live.append(self)

    @property
    def pid(self):
        return self.proc.pid

    def readline(self, timeout):
        """The child's next stdout line (without newline); raises on EOF or timeout."""
        result = []

        def _read():
            result.append(self.proc.stdout.readline())

        reader = threading.Thread(target=_read, name="child-readline", daemon=True)
        reader.start()
        reader.join(timeout)
        if reader.is_alive():
            raise ChildError(f"{self.argv[:4]} wrote no line within {timeout} s")
        line = result[0]
        if not line:
            raise ChildError(f"{self.argv[:4]} closed stdout (exit code {self.proc.poll()})")
        return line.rstrip("\n")

    def peak_rss_mb(self):
        """VmHWM of the child process in MiB, or ``None`` once it has exited."""
        try:
            with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            return None
        return None

    def stop(self, grace=TERM_GRACE_S):
        """SIGTERM the group, wait up to ``grace`` s, SIGKILL the group, reap.

        The pipes are closed last, so a child that writes on its way out
        (the traced launcher saves its spans after SIGTERM) is not cut off.
        """
        _signal_group(self.proc.pid, signal.SIGTERM)
        try:
            self.proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            pass
        # The group may hold grandchildren even after the leader exited.
        _signal_group(self.proc.pid, signal.SIGKILL)
        try:
            self.proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            print(f"perfbench: child {self.proc.pid} survived SIGKILL", file=sys.stderr)
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                try:
                    stream.close()
                except OSError:
                    pass
        with _live_lock:
            if self in _live:
                _live.remove(self)
        return self.proc.returncode


def _signal_group(pid, signum):
    try:
        os.killpg(pid, signum)
    except (ProcessLookupError, PermissionError):
        pass


def stop_all():
    """Tear down every child that is still registered (idempotent)."""
    with _live_lock:
        children = list(_live)
    for child in reversed(children):
        child.stop()


def live_children():
    """The children started and not yet stopped (for tests)."""
    with _live_lock:
        return list(_live)


class Interrupted(BaseException):
    """Raised in the main thread when the benchmark receives SIGTERM/SIGINT."""


def install_signal_teardown():
    """Turn SIGTERM/SIGINT into :class:`Interrupted`, so ``finally`` blocks run.

    Returns the previous handlers, for the caller to restore.
    """

    def _handler(signum, frame):
        raise Interrupted(signal.Signals(signum).name)

    return {signum: signal.signal(signum, _handler) for signum in (signal.SIGTERM, signal.SIGINT)}
