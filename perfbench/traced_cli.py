"""Run one pthamil CLI command with span tracing installed.

    python perfbench/traced_cli.py SPANS.npz <pthamil arguments>

Behaves like ``python -m pthamil <arguments>`` (same output, same exit code)
and writes the recorded spans to ``SPANS.npz`` when the command has finished.
The package must be importable, e.g. through ``PYTHONPATH=src``.
"""

import sys

from tracer import Tracer, save_table


def main(argv) -> int:
    spans_path, args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    cli = sys.modules["pthamil.cli"]
    tracer.begin_op(0)
    try:
        return cli.main(args)
    finally:
        sys.stdout.flush()
        save_table(spans_path, tracer.table())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
