"""Start ``repro-hics serve`` in this process, optionally traced.

Usage::

    python3 perfbench/launcher.py [--spans-out PATH] serve --model M --port 0

With ``--spans-out`` the layer wrappers of :mod:`spans` are installed before
the CLI entry point runs, and the recorded spans are written to ``PATH``
after the server shuts down cleanly (SIGINT).
"""

from __future__ import annotations

import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv) -> int:
    from repro import cli

    # The benchmark stops the server with SIGINT.  A process started from a
    # shell's background job inherits SIGINT as ignored, and Python then
    # installs no KeyboardInterrupt handler, so restore it explicitly.
    signal.signal(signal.SIGINT, signal.default_int_handler)

    if argv[:1] != ["--spans-out"]:
        return cli.main(argv)
    import spans

    spans_out, cli_args = argv[1], argv[2:]
    spans.import_serving_modules()
    tracer = spans.Tracer()
    with spans.traced(tracer):
        code = cli.main(cli_args)
    tracer.dump(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
