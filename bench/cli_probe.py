"""Run ``bisurv.cli.main`` under the tracer, as ``python -m bisurv.cli`` would.

Usage: ``python3 bench/cli_probe.py SPANS.json CLI-ARGS...``

Times the import of ``bisurv.cli``, runs ``main`` inside a ``cli.main``
span, writes the spans and counters to ``SPANS.json`` and exits with the
command's own exit code.  Standard output is the command's, unchanged.
"""

import json
import sys
import time


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    from bisurv import cli
    import_s = time.perf_counter() - start

    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.call("cli.main", cli.main, (argv,), {})
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        counters = dict(tracer.counters, **{"cli.import_s": import_s})
        with open(spans_path, "w") as fh:
            json.dump({"spans": tracer.spans, "counters": counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
