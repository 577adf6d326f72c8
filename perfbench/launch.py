"""Run the public nearris CLI (`nearris.cli.main`) with spans recorded.

Usage: python perfbench/launch.py SPAN_DIR {coarse,full} -- CLI ARGS...

`coarse` records only the calls that mark set-up and work boundaries;
`full` records every layer in spans.LAYERS. The CLI's exit code is
returned unchanged, and the spans are written to SPAN_DIR at exit.
"""

import sys

import spans


def main(argv):
    span_dir, level, sep, *cli_args = argv
    if sep != "--" or level not in ("coarse", "full"):
        raise SystemExit(__doc__)
    tracer = spans.Tracer(span_dir)
    names = spans.COARSE if level == "coarse" else {name for name, _, _ in spans.LAYERS}
    spans.install(tracer, names)
    from nearris import cli
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
