"""Run the program's CLI with every layer callable wrapped in spans.

    python3 perfbench/launcher.py SPANS.json serve --snapshots DIR ...

Installs :func:`tracing.layer_targets` in this process, runs
``repro.cli.main`` with the remaining arguments, and writes the
in-memory spans to ``SPANS.json`` when the CLI returns (the server
returns after its SIGTERM drain).  Expects ``PYTHONPATH`` to name the
checkout's ``src/``.
"""

from __future__ import annotations

import sys

import tracing


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = tracing.Tracer()
    tracing.install(tracer, tracing.layer_targets())
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
