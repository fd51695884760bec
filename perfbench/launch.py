"""Run one dyncert CLI command with every layer boundary traced.

    python3 perfbench/launch.py SPANS_FILE -- <dyncert arguments>

Behaves as ``python -m dyncert.cli <arguments>`` (same output, same exit
code) and writes the command's spans to SPANS_FILE as JSON.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402


def main():
    spans_file, sep, *argv = sys.argv[1:]
    if sep != "--":
        sys.exit("usage: launch.py SPANS_FILE -- <dyncert arguments>")
    from dyncert import cli
    tracer = Tracer()
    layers.install(tracer)
    try:
        code = cli.main(argv)
    finally:
        left = tracer.restore()
        dump = tracer.dump()
        dump["restored"] = not left
        Path(spans_file).write_text(json.dumps(dump))
    return code


if __name__ == "__main__":
    sys.exit(main())
