"""Time one rung of the benchmark's max_n probe and report its peak memory.

    python3 tools/rung.py CHECKOUT ROUTE N SEED

Runs CHECKOUT's `bench/probe.py ROUTE N SEED` in this interpreter, on
CHECKOUT's `src`, and prints one line: the rung's compute seconds, as the
probe prints them, and the interpreter's peak resident memory (VmHWM from
/proc/self/status, Linux only) in MB.
"""

from __future__ import annotations

import contextlib
import io
import os
import runpy
import sys


def peak_rss_mb() -> float:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main():
    checkout, route, n, seed = sys.argv[1:5]
    probe = os.path.join(checkout, "bench", "probe.py")
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.dirname(probe)]
    sys.argv = [probe, route, n, seed]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(probe, run_name="__main__")
    seconds = float(out.getvalue().split()[-1])
    print("%s rung n = %s: %.2f s, VmHWM %.0f MB" % (route, n, seconds, peak_rss_mb()))


if __name__ == "__main__":
    main()
