"""Run one lexigauge command in this interpreter with its calls traced.

    python3 bench/child.py SPANS_JSON COMMAND [ARG...]

Runs lexigauge.cli.main([COMMAND, ARG...]) inside one op span, the import
of lexigauge.cli included, writes the spans to SPANS_JSON and exits with the
command's exit code. The cli_cold workload runs it in place of
`python -m lexigauge.cli` in its traced phase.
"""
import importlib
import sys

import layers
import tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    trace = tracer.Tracer()
    with trace.op("cli_cold.command"):
        cli = importlib.import_module("lexigauge.cli")
        trace.install(layers.POINTS)
        rc = cli.main(argv)
    trace.uninstall()
    trace.write(spans_path)
    return rc


if __name__ == "__main__":
    sys.exit(main())
