"""One fresh ``valq`` process for the benchmark.

    python3 bench/child.py setup <valq arguments>
    python3 bench/child.py pass  <valq arguments>
    python3 bench/child.py trace <valq arguments>

``setup`` starts the interpreter, imports ``valq.cli``, parses the
arguments and builds the exchange data, then exits.  ``pass`` runs the
command through ``valq.cli.main`` with its output captured and prints
one JSON document: the CLOCK_MONOTONIC time of dispatch, the process
CPU time from dispatch to the return of ``main``, the exit code,
the captured output and any traceback.  ``trace`` does the same with the
tracer installed and adds its spans.  ``src`` must be on PYTHONPATH.
"""

import io
import json
import sys
import time
import traceback


def main():
    mode, argv = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        from valq import cli

        cli.load_data(cli.build_parser().parse_args(argv))
        return 0
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from valq import cli

    real_stdout, captured = sys.stdout, io.StringIO()
    sys.stdout = captured
    error = None
    t_dispatch = time.monotonic()
    cpu_dispatch = time.process_time()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:
        rc = None
        error = traceback.format_exc()
    finally:
        sys.stdout = real_stdout
    cpu_end = time.process_time()
    doc = {
        "t_dispatch": t_dispatch,
        "cpu_s": cpu_end - cpu_dispatch,
        "rc": rc,
        "stdout": captured.getvalue(),
        "error": error,
    }
    if tracer is not None:
        doc["trace"] = tracer.report()
    json.dump(doc, real_stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
