"""Run ``longmem.cli.main`` under the span tracer and save the spans.

Usage: python traced_cli.py SPANS_JSON CLI_ARG...

Exits with the CLI's own exit code.  ``longmem`` must be importable, e.g.
through PYTHONPATH.
"""

import sys

from spans import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import longmem.cli

    tracer = Tracer()
    tracer.install()
    try:
        return longmem.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
