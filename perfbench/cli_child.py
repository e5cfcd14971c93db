"""Run one ``hodgecharts`` CLI invocation under the span tracer.

Usage: python cli_child.py SPANS.json <subcommand> [CLI arguments...]

Imports ``hodgecharts.cli``, wraps its layers, runs ``main`` with the given
arguments and writes the spans to SPANS.json at exit.  The report on stdout
and the exit code are those of the plain CLI.
"""

import sys

from spans import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import hodgecharts.cli as cli

    tracer = Tracer()
    tracer.install()
    tracer.begin_op(0)
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
