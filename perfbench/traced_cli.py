"""Run the vikit command line with every entry point traced.

    python3 perfbench/traced_cli.py SPANS.npz run --problem ... --out DIR

Installs the recorder from tracer.py, runs ``vikit.cli.main`` on the
remaining arguments, then writes the spans to SPANS.npz. Exits with the
command's own exit code.
"""

import sys

import tracer


def main() -> int:
    spans, argv = sys.argv[1], sys.argv[2:]
    import vikit.cli

    rec = tracer.Recorder()
    with tracer.installed(rec):
        code = vikit.cli.main(argv)
    rec.dump(spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
