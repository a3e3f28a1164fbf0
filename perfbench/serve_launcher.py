"""``repro serve`` with the benchmark's wrappers installed.

Usage: ``python3 perfbench/serve_launcher.py SPANS.json FILE --port 0``
with ``src`` on ``PYTHONPATH``.  Installs the server-side wrappers, runs
``repro.cli.main(["serve", ...])`` unchanged, and after the SIGTERM drain
returns writes every recorded span to ``SPANS.json``.
"""

from __future__ import annotations

import json
import sys

from tracing import SERVE, Tracer

#: Server span ids start here so they never collide with the client's.
SERVER_FIRST_ID = 1_000_000_000


def main(argv: list[str]) -> int:
    spans_path, serve_args = argv[0], argv[1:]
    tracer = Tracer(first_id=SERVER_FIRST_ID)
    tracer.install(SERVE)
    from repro.cli import main as repro_main

    code = repro_main(["serve", *serve_args])
    tracer.uninstall()
    with open(spans_path, "w") as f:
        json.dump(tracer.spans, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
