"""Run one command; record its exit code, wall time and peak resident set.

    python3 perfbench/launch.py RESULT_FILE LOG_FILE CMD...

writes {"code", "wall_s", "maxrss_kib"} as JSON to RESULT_FILE and the
command's output to LOG_FILE.  ``run.py`` starts every stage through this
small process because on Linux the peak resident set that ``wait4`` reports
for a process starts at the resident set of the process it was forked from:
a stage started straight from the benchmark would report at least the
benchmark's own memory.  The peak covers the command's reaped children too,
such as the workers of a process pool.
"""

import json
import os
import subprocess
import sys
import time


def main(argv: list) -> int:
    result, log, cmd = argv[0], argv[1], argv[2:]
    with open(log, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(result, "w") as fh:
        json.dump({"code": proc.returncode, "wall_s": wall, "maxrss_kib": usage.ru_maxrss}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
