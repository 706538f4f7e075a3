"""One benchmark repetition in a fresh interpreter.

Usage: python3 worker.py SPEC.json

SPEC names the ``run_command`` calls to make (command, config path, output
directory), whether to trace, and where to write the result.  The process
times ``import symrec.cli_io`` plus the first ``make_profile`` as set-up,
then the calls themselves, and reports its own ``ru_maxrss``.  A fresh
process per repetition is required: the RSS high-water mark and the
``lru_cache`` on ``make_profile`` would otherwise carry over.

The package directory must already be on ``PYTHONPATH``; ``run.py`` sets it.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))

    t0 = time.perf_counter()
    import symrec.cli_io as cli_io  # the CLI entry point imports the whole package
    t1 = time.perf_counter()

    from symrec import wave_packets

    calls = [(c["command"], cli_io.load_config(c["config"]), c["out"]) for c in spec["calls"]]
    t2 = time.perf_counter()
    wave_packets.make_profile(calls[0][1].profile_sharpness)
    t3 = time.perf_counter()

    tracer = None
    if spec["trace"]:
        import layer_trace

        tracer = layer_trace.Tracer()
        tracer.install()

    codes, call_s = [], []
    run_start = time.perf_counter()
    for command, cfg, out in calls:
        start = time.perf_counter()
        try:
            code = cli_io.run_command(command, cfg, out_dir=out, quiet=True)
        except Exception:  # a traceback is a failed call, not a failed benchmark
            traceback.print_exc()
            code = -1
        call_s.append(time.perf_counter() - start)
        codes.append(code)
    run_s = time.perf_counter() - run_start

    import numpy
    import scipy

    result = {
        "source": str(Path(cli_io.__file__).resolve().parent),
        "import_s": t1 - t0,
        "profile_s": t3 - t2,
        "setup_s": (t1 - t0) + (t3 - t2),
        "run_s": run_s,
        "call_s": call_s,
        "codes": codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if tracer is not None:
        tracer.write(spec["spans"])
        result["layers"] = tracer.layer_metrics()
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
