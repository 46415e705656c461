"""The server subprocess: ``python -m layersbench.serve WORKLOAD SEED SCALE``.

Builds the workload's graph and serves it with every constructor
default — what users run. Prints ``READY <host> <port> <pid>`` once the
socket is bound and serves until its stdin closes.
"""

from __future__ import annotations

import os
import sys

from repro.server import serve_background
from repro.service import GraphService

from layersbench.workloads import WORKLOADS


def main(argv: list[str]) -> int:
    name, seed, scale = argv
    graph = WORKLOADS[name].build_graph(int(seed), scale)
    with serve_background(GraphService(graph)) as handle:
        host, port = handle.address
        print(f"READY {host} {port} {os.getpid()}", flush=True)
        sys.stdin.read()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
