"""Start the optimizer server as ``python -m repro.cli serve --port 0`` does,
with the layer timing of :mod:`layers` installed first.

Usage::

    python3 perfbench/traced_serve.py SPANS.json

SIGUSR2 clears the aggregates and answers ``{"reset": true}`` on stdout (the
benchmark sends it once warm-up is over).  When the server exits (SIGTERM or
SIGINT drain it, as for ``repro.cli serve``), the aggregates go to
``SPANS.json``.
"""

from __future__ import annotations

import json
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from layers import Recorder  # noqa: E402


def main(argv):
    spans_path = argv[0]
    recorder = Recorder().install()

    def _reset(signum, frame):
        recorder.reset()
        print(json.dumps({"reset": True}), flush=True)

    signal.signal(signal.SIGUSR2, _reset)
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve", "--port", "0"])
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
