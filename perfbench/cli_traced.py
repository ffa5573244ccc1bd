"""``python -m lucasatoms`` with the tracer installed, for the traced cli-session.

Runs ``lucasatoms.cli.main`` on the given arguments and exits with its code,
like the module entry point. The trace summary, with the time the
``lucasatoms.cli`` import took, goes to the file named by PERFBENCH_TRACE_OUT.
"""

import sys
import time

IMPORT_STARTED_AT = time.perf_counter()
import lucasatoms.cli  # noqa: E402

IMPORT_S = time.perf_counter() - IMPORT_STARTED_AT

import json  # noqa: E402
import os  # noqa: E402

from tracing import Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        code = lucasatoms.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    summary = tracer.summary()
    summary["import_s"] = IMPORT_S
    with open(os.environ["PERFBENCH_TRACE_OUT"], "w") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
