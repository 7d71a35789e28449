"""The benchmark's server process: the real ``TopKService`` (wire
protocol v2) behind its asyncio socket front end.

Run by ``run.py``, never by hand::

    python3 perfbench/launcher.py --cpu 0

It prints ``ready <port>`` once the socket listens, then obeys one
command per stdin line, answering each with ``ok``:

- ``spans`` / ``counts`` installs the timed / counting wrapper set
  (:mod:`tracing`), ``off`` removes every wrapper;
- ``dump <path>`` writes the recorded spans and counts as JSON and
  clears them;
- ``quit`` (or end of input) drains the server and exits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import tracing


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--cpu", type=int, default=None)
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    from repro.service.server import ServiceConfig, ServiceThread, TopKService

    recorder = tracing.Recorder()
    installed: list[tracing.Patches] = []
    service = TopKService(ServiceConfig(protocol="v2"))
    with ServiceThread(service) as live:
        print(f"ready {live.port}", flush=True)
        for line in sys.stdin:
            command, __, arg = line.strip().partition(" ")
            if command == "quit":
                break
            if command == "spans":
                installed.append(tracing.install_server_spans(recorder))
            elif command == "counts":
                installed.append(tracing.install_server_counts(recorder))
            elif command == "off":
                while installed:
                    installed.pop().restore()
            elif command == "dump":
                with open(arg, "w") as out:
                    json.dump(recorder.to_dict(), out)
                recorder.clear()
            else:
                print(f"error unknown command {command!r}", flush=True)
                continue
            print("ok", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
