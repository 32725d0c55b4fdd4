"""Run one `dickson` invocation in-process with span tracing on.

    python3 bench/traced.py SRC_DIR ARG...

Imports `dicksonrs` from SRC_DIR, installs the span wrappers, calls
`cli.main(ARG...)` with stdout captured, and prints one JSON object:
the exit code, the SHA-256 of the captured stdout (so the caller can
check that tracing leaves the report byte-identical) and the span
aggregates.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys


def main() -> int:
    src, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, src)
    from spans import Tracer

    import dicksonrs.cli as cli

    tracer = Tracer()
    tracer.install()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 1
    doc = {
        "rc": rc,
        "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
        **tracer.report(),
    }
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
