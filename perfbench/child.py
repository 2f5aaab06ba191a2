"""One benchmark repetition in a fresh interpreter, as a user's CLI call.

    python3 perfbench/child.py CONFIG OUT_DIR {setup,run,trace}

``setup`` times ``import chanauth`` plus ``load_config`` and stops there.
``run`` does the same, then times one ``chanauth run CONFIG --out OUT_DIR``.
``trace`` is ``run`` with the tracer installed after set-up.  The last line
of standard output is one JSON object with the measurements.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and line.rstrip().endswith(".so")}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv: list[str]) -> int:
    config, out_dir, mode = argv
    if mode not in ("setup", "run", "trace"):
        raise SystemExit(f"unknown mode {mode!r}")
    start = time.perf_counter()
    from chanauth import cli

    parsed, diags = cli.load_config(config)
    setup_s = time.perf_counter() - start
    result = {"setup_s": setup_s, "config_ok": parsed is not None and not diags, "chanauth": cli.__file__}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            sys.path.insert(0, str(Path(__file__).resolve().parent))
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        status = cli.main(["run", config, "--out", out_dir])
        result["run_s"] = time.perf_counter() - start
        result["exit"] = status
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.layer_metrics()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    import numpy
    import scipy

    result["machine"] = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
