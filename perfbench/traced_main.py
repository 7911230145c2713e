"""Traced run: call ``seqtest.cli.main`` in this process with every layer
wrapped, then write the spans.

    python3 traced_main.py --run-id ID --spans SPANS.json --worker-dir DIR \\
        --commands '[["gen", ...], ["simulate", ...]]'

Run from the directory the commands' relative paths refer to, with the
package's source on ``PYTHONPATH``. Exits 2 when a command fails and 3 when a
binding of a wrapped function was missed.
"""

from __future__ import annotations

import argparse
import json
import sys
from time import perf_counter

from tracer import Tracer


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--worker-dir", required=True)
    parser.add_argument("--commands", required=True, help="JSON list of argv lists")
    args = parser.parse_args()

    tracer = Tracer(args.run_id, args.worker_dir)
    tracer.install()
    unwrapped = tracer.unwrapped_bindings()
    if unwrapped:
        print(f"bindings left unwrapped: {unwrapped}", file=sys.stderr)
        return 3

    from seqtest import cli

    commands = []
    for argv in json.loads(args.commands):
        start = perf_counter()
        rc = cli.main(argv)
        commands.append({"argv": argv, "rc": rc, "wall_s": perf_counter() - start})
    tracer.write(args.spans, {"commands": commands})
    return 0 if all(c["rc"] == 0 for c in commands) else 2


if __name__ == "__main__":
    sys.exit(main())
