"""One pipeline pass in a fresh interpreter, as a CLI user would run it.

Usage: python3 child.py <started_monotonic> <config> <result.json> <trace 0|1> <schedule>

``started_monotonic`` is the parent's ``time.monotonic()`` just before it
started this process; CLOCK_MONOTONIC is system-wide on Linux, so the
difference at the end of set-up is the interpreter start plus the import
of ``spd_bci.cli`` plus loading the config. Each step is then run through
``spd_bci.cli.main`` exactly as the console script does, as often in a
row as ``schedule`` (JSON ``[[step, runs], ...]``) says. Results go to
``result.json``; with tracing on, the spans and counters go along.
"""

import json
import resource
import sys
import time


def main(argv):
    started, config_path, result_path = float(argv[0]), argv[1], argv[2]
    trace, schedule = argv[3] == "1", json.loads(argv[4])
    from spd_bci import cli

    cli.load_config(config_path)
    setup_s = time.monotonic() - started

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    steps = {step: {"codes": [], "seconds": []} for step, _ in schedule}
    for step, repeats in schedule:
        for i in range(repeats):
            if tracer is not None:
                tracer.run_id = f"{step}.{i}"
            begin = time.perf_counter()
            code = cli.main([step, "--config", config_path])
            steps[step]["seconds"].append(time.perf_counter() - begin)
            steps[step]["codes"].append(code)
            if code != 0:
                break
        if code != 0:
            break

    result = {
        "setup_s": setup_s,
        "steps": steps,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": blas_threads(),
    }
    if tracer is not None:
        result["trace"] = tracer.dump()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if it is not found."""
    import ctypes
    import glob
    import os

    import numpy

    libs_dir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs_dir, "*openblas*")):
        getter = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.restype = ctypes.c_int
            getter.argtypes = []
            return getter()
    return None


if __name__ == "__main__":
    main(sys.argv[1:])
