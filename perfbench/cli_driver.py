"""Traced stand-in for one `python -m cellab.cli ARGS...` process.

Times `import cellab.cli`, installs the span wrappers, calls
`cellab.cli.main(ARGS)` with stdout captured, and prints one JSON line:
the exit code the real process would have had, the captured stdout, the
import time and the op's span totals. Run it from the checkout root with
`src` on PYTHONPATH; the benchmark does this for every traced cli op.
"""

import contextlib
import io
import json
import sys
import time
import traceback

t0 = time.perf_counter()
import cellab.cli  # noqa: E402
import_s = time.perf_counter() - t0

import tracer as tr  # noqa: E402  (this file's directory is on sys.path)


def main() -> int:
    tracer = tr.Tracer()
    absent = tr.install(tracer)
    buf = io.StringIO()
    tracer.begin()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cellab.cli.main(sys.argv[1:])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:  # what the interpreter does with an uncaught error
            traceback.print_exc()
            rc = 1
    totals = tracer.end()
    print(json.dumps({"rc": rc, "stdout": buf.getvalue(), "import_s": import_s,
                      "totals": totals, "absent": absent}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
