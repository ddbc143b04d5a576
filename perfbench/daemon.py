"""Run ``repro serve`` with the layer entry points wrapped.

Usage: ``python perfbench/daemon.py SPANS_JSON serve [serve options...]``.
The spans stay in memory while the daemon runs and are written to
``SPANS_JSON`` after it drains; the exit code is the daemon's.
"""

from __future__ import annotations

import json
import sys

from spans import Recorder


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    rec.install(["serve", "core", "stencils", "perf", "resilience"])
    from repro.cli import main as cli_main

    rec.on = True
    try:
        return cli_main(argv)
    finally:
        rec.on = False
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(rec.take(), fh)


if __name__ == "__main__":
    sys.exit(main())
