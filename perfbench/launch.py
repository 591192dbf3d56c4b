"""Start one serving process (``repro.cli``) for the benchmark.

Usage::

    python3 perfbench/launch.py --dump OUT.json [--trace] -- serve --listen ...

The process runs ``repro.cli.main`` on the arguments after ``--`` with
the checkout's ``src`` directory on the import path.  With ``--trace``
the layer entry points are wrapped first (see :mod:`tracing`).  Either
way the process keeps a handle on every sketch server it starts and, when
the CLI returns (SIGTERM makes the serve loops drain and return), writes
``OUT.json``: the recorded spans plus each server's coalescer counters.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    import tracing
    from repro import cli
    from repro.server.server import SketchServer

    recorder = tracing.Recorder()
    servers: list = []
    original_start = SketchServer.start

    async def start(self):
        servers.append(self)
        return await original_start(self)

    SketchServer.start = start
    if args.trace:
        tracing.install_server(recorder)
    try:
        return cli.main(cli_args)
    finally:
        coalescers = []
        for server in servers:
            stats = server.coalescer.stats
            coalescers.append({"batches": stats.batches,
                               "size_dispatches": stats.size_dispatches,
                               "timer_dispatches": stats.timer_dispatches,
                               "batched_queries": stats.batched_queries})
        recorder.dump(args.dump, pid=os.getpid(), coalescers=coalescers)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
