"""Process launcher: starts commands for the harness and reports each one's peak RSS.

Usage: python launcher.py  (one JSON request per stdin line)

On Linux a command's ``ru_maxrss`` never reads below the peak RSS of the
process that spawned it: exec carries the spawner's high-water mark over.
The harness holds numpy, vcmatch and every input; this process holds only
an interpreter, so a command started from here has that small floor.

A request is ``{"argv": [...], "stdout": PATH, "stderr": PATH}``.  The
launcher answers ``{"pid": N}`` once the command has started and
``{"code": C, "maxrss_kib": K, "wall_s": W, "cal_ns": L}`` once it has
ended; ``wall_s`` runs from just before the start to the reap, and
``cal_ns`` lists the calibration loop's times around the command (see
calibrate.py).  It exits at end of input.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import calibrate


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as stdout, open(request["stderr"], "ab") as stderr:
            before = calibrate.samples_ns()
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=stdout, stderr=stderr)
            print(json.dumps({"pid": proc.pid}), flush=True)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            cal = before + calibrate.samples_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"code": proc.returncode, "maxrss_kib": usage.ru_maxrss, "wall_s": wall, "cal_ns": cal}),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
