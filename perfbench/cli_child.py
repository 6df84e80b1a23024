"""One `swsh` command-line invocation, started the way the console script starts it.

    python3 perfbench/cli_child.py [--trace-out FILE] <swsh arguments...>

Puts the checkout's src/ first on sys.path and calls swsh.cli.main, as
the `swsh` entry point does.  With --trace-out it also times the import
of swsh.cli and the call of main, installs the span wrappers in this
process, and at exit writes the spans to FILE (.npz) and their totals to
FILE with a .json suffix.  Standard output and written files are the
same with and without tracing.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def _traced(trace_out, argv):
    import json
    from pathlib import Path

    import tracing

    tracer = tracing.Tracer()
    with tracer.span("cli.import"):
        import swsh.cli
    tracing.install(tracer)
    try:
        with tracer.span("cli.main"):
            return swsh.cli.main(argv)
    finally:
        path = Path(trace_out)
        tracer.save(path)
        path.with_suffix(".json").write_text(json.dumps(tracer.totals()))


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["--trace-out"]:
        return _traced(argv[1], argv[2:])
    from swsh.cli import main as swsh_main

    return swsh_main(argv)


if __name__ == "__main__":
    sys.exit(main())
