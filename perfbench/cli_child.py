"""Run one sloccinv CLI command with the benchmark's span recorder installed.

Usage: python3 perfbench/cli_child.py SPANS_OUT PROC JOB ARGV...

It writes the command's spans, and the clock reading at which the CLI's
main() was entered, to SPANS_OUT and exits with the CLI's exit code.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import layers  # noqa: E402
from sloccinv import cli  # noqa: E402
from spans import clock  # noqa: E402


def main() -> int:
    out, proc, job, *argv = sys.argv[1:]
    tracer = layers.new_tracer(proc)
    tracer.install(layers.modules())
    tracer.job = int(job)
    t_main = clock()
    try:
        return cli.main(argv)
    finally:
        tracer.job = None
        doc = tracer.dump()
        doc["t_main"] = t_main
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main())
