"""python -m circint under the tracer: traced_cli.py TRACE_FILE ARGS...

Runs circint.cli.main(ARGS) with every layer wrapped in spans, writes the
spans to TRACE_FILE and exits with main's exit code.
"""

import sys
from pathlib import Path

import tracer as tr

if __name__ == "__main__":
    tracer = tr.Tracer()
    tr.install(tracer)
    from circint import cli

    try:
        code = cli.main(sys.argv[2:])
    finally:
        sys.stdout.flush()
        tracer.write(Path(sys.argv[1]))
    sys.exit(code)
