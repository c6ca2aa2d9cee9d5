"""Start commands one at a time and report each one's exit code, wall time
and resource usage.

Reads one JSON request per line on stdin,
``{"cmd": [...], "out": PATH, "err": PATH, "timeout": SECONDS}``, runs the
command with stdout and stderr going to the two files, kills it after the
timeout, and answers with one JSON line
``{"code": ..., "wall_s": ..., "cpu_s": ..., "maxrss_kb": ...}``.

It exists so that a child's ``ru_maxrss`` is the child's own. Linux carries
the parent's resident size into the child's high-water mark across fork and
exec, so the benchmark, whose own memory grows while it checks large
outputs, starts this small process first and has it start every operation.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["cmd"], stdout=out, stderr=err)
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"code": proc.returncode, "wall_s": wall,
                          "cpu_s": usage.ru_utime + usage.ru_stime,
                          "maxrss_kb": usage.ru_maxrss}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
