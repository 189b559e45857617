"""Run one ``zbw`` command with the benchmark's layer spans installed.

The traced ``cli_cold`` run starts this file in place of
``python -m zbwsim.cli``.  It writes the span summary as JSON to the file
named by ``PERFBENCH_TRACE_OUT`` and exits with the command's exit code.
Spans inside the ``sweep --jobs`` worker processes are not collected.
"""
import json
import os
import sys

import zbwsim.cli
from tracing import Tracer, summarize


def main() -> int:
    tracer = Tracer()
    with tracer.installed():
        rc = zbwsim.cli.main(sys.argv[1:])
    with open(os.environ["PERFBENCH_TRACE_OUT"], "w") as fh:
        json.dump(summarize(tracer.spans), fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
