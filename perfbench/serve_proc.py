"""``repro serve`` with the serving layers wrapped; spans written on exit.

Usage::

    python perfbench/serve_proc.py TRACE_OUT.json -- serve --store DIR --port 0

Everything after ``--`` is handed to ``repro.cli.main`` unchanged.  On
SIGTERM (or SIGINT) the server shuts down and the ledger (spans and
counters) is written to ``TRACE_OUT.json``.
"""

from __future__ import annotations

import json
import pathlib
import signal
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import layers  # noqa: E402
from ledger import Patches  # noqa: E402


def _interrupt(signum, frame):
    raise KeyboardInterrupt  # the shutdown path ``repro serve`` handles


def main(argv) -> int:
    out, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit(__doc__)
    from repro.cli import main as cli_main

    signal.signal(signal.SIGTERM, _interrupt)
    patches = Patches()
    layers.instrument_serving(patches)
    layers.LEDGER.enabled = True
    try:
        return cli_main(cli_args)
    finally:
        layers.LEDGER.enabled = False
        pathlib.Path(out).write_text(json.dumps(layers.LEDGER.export()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
