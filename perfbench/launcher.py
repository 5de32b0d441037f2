"""Run one `aoi_mec.cli` command in-process with the benchmark's spans.

    python perfbench/launcher.py SPANS_FILE -- <cli arguments>

Installs the wrappers of tracing.py, runs `aoi_mec.cli.main` inside a
`cli.command` span, writes the spans to SPANS_FILE (gzip JSON lines) and
exits with the command's exit code.
"""

import sys

import tracing


def main(argv):
    spans_file, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: launcher.py SPANS_FILE -- <cli arguments>")
    from aoi_mec import cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("cli.command", {"argv": cli_args}, root=True):
            code = cli.main(cli_args)
    finally:
        tracing.write_spans(tracer.spans, spans_file)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
