"""The repository benchmark: one workload against a live top-k service.

Run from the repository root::

    python3 perfbench/run.py --workload query_stream --seed 1 --seconds 20 --trace 0

The server (``launcher.py``) and this load generator run as two
processes, pinned to separate cores when there are at least two.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``
(which also writes a Chrome trace under ``.perfbench_out/``).  The
workloads and metrics are described in ``workloads.json`` and the root
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _cores() -> tuple:
    """(server core, generator core), or no pinning below two cores."""
    cores = sorted(os.sched_getaffinity(0))
    if len(cores) < 2:
        return None, None
    return cores[-1], cores[-2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    server_cpu, client_cpu = _cores()
    if client_cpu is not None:
        os.sched_setaffinity(0, {client_cpu})
    workload = workloads.WORKLOADS[args.workload](
        workloads.load_spec(args.workload),
        args.seed,
        args.seconds,
        bool(args.trace),
        server_cpu=server_cpu,
    )
    result = workload.run()
    for problem in workload.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
