"""One workload process of the benchmark.

Usage: python3 child.py T_SPAWN RESULT_JSON MODE [CLI_ARG ...]

T_SPAWN is the parent's time.monotonic() just before it started this
process (the clock is system-wide on Linux).  MODE is ``probe`` (only time
``import dunkl_osc``), ``plain`` (one call of the CLI entry point) or
``trace`` (the same call under the outside-in tracer).  The result JSON
holds setup_s, wall_s, cpu_s, peak RSS, the CLI exit code and, when
traced, the per-layer summary.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def main() -> int:
    t_spawn, out_path, mode, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3], sys.argv[4:]
    import dunkl_osc  # noqa: F401  (set-up ends when this returns)
    result = {"setup_s": time.monotonic() - t_spawn}
    if mode != "probe":
        from dunkl_osc import cli
        tracer = None
        if mode == "trace":
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # an uncaught error is a failed run, not a crash
            traceback.print_exc()
            rc = 1
        result["wall_s"] = time.perf_counter() - t0
        traced_wall = time.monotonic() - t_spawn
        ru = resource.getrusage(resource.RUSAGE_SELF)
        result.update(rc=rc, cpu_s=ru.ru_utime + ru.ru_stime,
                      peak_rss_mb=ru.ru_maxrss / 1024.0)
        if tracer is not None:
            tracer.uninstall()
            result["trace"] = tracer.summary(traced_wall)
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
