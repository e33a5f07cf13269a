"""Run ``noonsim.cli`` with the layer wrappers installed.

    python perfbench/traced_cli.py TRACE_FILE [noonsim arguments...]

Behaves like ``python -m noonsim.cli`` and, however the command ends,
writes the span totals (including ``import noonsim.cli`` as the import
layer) to TRACE_FILE as JSON.
"""

import sys
import time

from tracing import Tracer

trace_file, argv = sys.argv[1], sys.argv[2:]
tracer = Tracer()
t0 = time.perf_counter()
import noonsim.cli  # noqa: E402  (timed as the import layer)

tracer.add_layer_time("import", time.perf_counter() - t0)
tracer.install()
try:
    code = noonsim.cli.main(argv)
finally:
    tracer.dump(trace_file)
sys.exit(code)
