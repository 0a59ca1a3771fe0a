"""Run ``repro serve --port 0`` and report on it when interrupted.

Usage: ``python3 -u perfbench/serve_child.py --out FILE [--trace]``

The server runs through the public CLI entry point.  With ``--trace`` the
serve-side span wrappers are installed first.  On SIGINT the server shuts
down gracefully and this process writes ``FILE``: its peak RSS, the
coalescer's queue-wait samples, the metrics registry and, when traced,
the recorded spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import SERVE_POINTS, Instrumentation, Recorder  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import repro.cli
    from repro.obs.metrics import REGISTRY
    from repro.serve.server import EvalServer

    servers = []
    original_init = EvalServer.__init__

    def remembering_init(self, *init_args, **init_kwargs):
        original_init(self, *init_args, **init_kwargs)
        servers.append(self)

    EvalServer.__init__ = remembering_init
    recorder = Recorder()
    instrumentation = Instrumentation(recorder, SERVE_POINTS, request_reader=True)
    if args.trace:
        instrumentation.install()
    try:
        status = repro.cli.main(["serve", "--host", "127.0.0.1", "--port", "0"])
    finally:
        instrumentation.uninstall()
        EvalServer.__init__ = original_init
    outcome = {
        "status": status,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "queue_waits_s": [wait for server in servers
                          for wait in server.coalescer.queue_waits],
        "registry": REGISTRY.flat(),
        "spans": recorder.spans,
        "counts": dict(recorder.counts),
    }
    Path(args.out).write_text(json.dumps(outcome))
    return status


if __name__ == "__main__":
    sys.exit(main())
