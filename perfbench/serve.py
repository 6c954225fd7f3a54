"""``repro-flip serve`` with the layer spans installed.

Usage: ``python perfbench/serve.py SPANS_OUT serve --store DIR ...`` runs
``repro.cli.main`` on the arguments after ``SPANS_OUT`` exactly as the
``repro-flip`` console script would, and after the service has drained on
SIGTERM writes every span it recorded to ``SPANS_OUT`` as JSON.
"""

import json
import sys
from pathlib import Path

import spans


def main(argv):
    out, serve_args = Path(argv[0]), argv[1:]
    from repro import cli

    tracer = spans.Tracer().install()
    try:
        code = cli.main(serve_args)
    finally:
        tracer.uninstall()
        out.write_text(json.dumps(tracer.take()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
