"""Traced launcher: runs one readskill CLI command or one corpus generator
with the benchmark's span tracer installed.

    python3 -X importtime perfbench/shim.py SPANS cli [readskill arguments...]
    python3 perfbench/shim.py SPANS gen [gen.py arguments...]

The import of readskill.cli is timed here, in a fresh process; the
benchmark reads the scipy.signal share of it from the -X importtime lines
on stderr. Spans are written to SPANS when the command ends, also when it
fails.
"""
from __future__ import annotations

import sys
import time

import tracing


def main(argv: list[str]) -> int:
    spans_path, entry, args = argv[0], argv[1], argv[2:]
    rec = tracing.Recorder()
    if entry == "cli":
        t0 = time.perf_counter()
        import readskill.cli as target
        rec.meta["import_s"] = time.perf_counter() - t0
        run = target.main
    else:
        import gen as target
        run = target.main
    tracing.install(rec)
    try:
        return tracing.run_traced(rec, run, args)
    finally:
        rec.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
