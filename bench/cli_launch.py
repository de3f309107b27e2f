"""Run one biharmlab CLI command with the benchmark's span wrappers installed.

    python3 bench/cli_launch.py SPANS_OUT CLI_ARG...

Imports biharmlab.cli (timed as the import cost), installs the wrappers of
tracing.py, calls `biharmlab.cli.main(CLI_ARGS)` and, when the command ends,
writes {import_s, spans, warnings} to SPANS_OUT as JSON.  Warnings are
recorded so they can be counted and are printed on stderr as well.  Exits
with the command's exit code.  src/ must be on PYTHONPATH.
"""

import json
import os
import sys
import time
import warnings

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Tracer, install  # noqa: E402


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import biharmlab.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.op = 0
    install(tracer)
    rc = 1
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rc = biharmlab.cli.main(argv)
        except SystemExit as exc:   # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        finally:
            records = [(w.category.__name__, str(w.message), w.filename, w.lineno)
                       for w in caught]
            for cat, msg, filename, lineno in records:
                sys.stderr.write(f"{filename}:{lineno}: {cat}: {msg}\n")
            with open(spans_out, "w") as fh:
                json.dump({"import_s": import_s, "warnings": records,
                           "spans": [s.as_list() for s in tracer.spans]}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
