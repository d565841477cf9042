"""Run one spectile CLI call in a fresh interpreter and report on it.

Usage: ``python3 child.py '<request JSON>'`` with the current directory set
to the directory holding the input files. Request keys: ``src`` (the
directory that holds the ``spectile`` package), ``argv`` (CLI arguments, or
null to only time the import), ``spans`` (a path to write spans to, or null
for an untraced call).

Prints one JSON line: ``setup_s`` (time to import spectile), ``run_s`` (time
inside ``spectile.cli.main``), ``rss_kb`` (peak resident memory of this
process), ``code``, ``stdout``, ``error`` and, when traced, ``names`` and
``counters``.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    req = json.loads(sys.argv[1])
    src = Path(req["src"]).resolve()
    t0 = time.perf_counter()
    sys.path.insert(0, str(src))
    import spectile
    import spectile.cli

    setup_s = time.perf_counter() - t0
    if src not in Path(spectile.__file__).resolve().parents:
        print(f"spectile was imported from {spectile.__file__}, not {src}", file=sys.stderr)
        return 2
    out = {"setup_s": setup_s}
    if req["argv"] is not None:
        tracer = None
        if req["spans"]:
            import spans

            tracer = spans.Tracer()
            tracer.install(spectile)
        buf = io.StringIO()
        code, error = None, ""
        t1 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = spectile.cli.main(req["argv"])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # reported as a failed operation, not a crash
            error = traceback.format_exc(limit=5)
        out["run_s"] = time.perf_counter() - t1
        out.update(code=code, stdout=buf.getvalue(), error=error)
        if tracer is not None:
            out["counters"] = tracer.finish()
            out["names"] = tracer.names
            tracer.save(req["spans"])
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
