"""Cold library calls: ``CBOptimizer(catalog).optimize``, each in a fresh copy
of a freshly started process.

Usage::

    python3 perfbench/cold_child.py [SPANS.json]

Prints ``{"ready": true}`` once the engine is imported, then reads one JSON
config per stdin line (``id``, ``workload``, ``params``, ``strategy``).  For
each, it forks; the copy builds the config, optimizes it with default knobs,
reports the optimize time in ms, the plan digests and its peak RSS, and
exits.  Every config therefore starts from the same state: nothing an
earlier config left in the engine's process-wide caches, or in the heap the
garbage collector walks, changes its time, so the order of the configs
does not change the figures.  With a spans path, the layer timing of
:mod:`layers` is installed, each copy sends back its aggregates, and their
sum is written at EOF.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from layers import Recorder  # noqa: E402
from reference import plan_digests  # noqa: E402


def optimize_one(config, builders, optimizer_class):
    workload = builders[config["workload"]](**config["params"])
    start = time.perf_counter()
    result = optimizer_class(workload.catalog).optimize(workload.query, config["strategy"])
    elapsed = time.perf_counter() - start
    return {
        "id": config["id"],
        "status": "ok",
        "ms": elapsed * 1000.0,
        "timed_out": result.timed_out,
        "plan_digests": plan_digests(result.plans),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def in_fresh_copy(work):
    """Run ``work()`` in a forked copy of this process; return its JSON reply."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_end)
        status = 1
        try:
            with os.fdopen(write_end, "w") as out:
                json.dump(work(), out)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end) as reply:
        data = reply.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"the optimizing copy exited with status {status}")
    return json.loads(data)


def main(argv):
    recorder = Recorder().install() if argv else None
    from repro.chase.optimizer import CBOptimizer
    from repro.workloads import build_ec1, build_ec2, build_ec3

    builders = {"ec1": build_ec1, "ec2": build_ec2, "ec3": build_ec3}
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        config = json.loads(line)

        def work():
            if recorder is not None:
                recorder.reset()  # the copy inherits the sums so far
            reply = optimize_one(config, builders, CBOptimizer)
            if recorder is not None:
                reply["layers"] = recorder.snapshot()["layers"]
            return reply

        reply = in_fresh_copy(work)
        if recorder is not None:
            recorder.merge(reply.pop("layers"))
        print(json.dumps(reply), flush=True)
    if recorder is not None:
        recorder.dump(argv[0])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
