"""Start benchmark commands from a process that holds little memory.

A child's ``ru_maxrss`` includes the resident memory of the process it was
started from, so a CLI started directly from the benchmark driver would
report the driver's peak. The driver sends one JSON request per line,
``{"argv", "stdout", "stderr"}``; this process runs the command, waits for it
and answers one JSON line ``{"code", "wall", "cpu", "maxrss_kb"}``. It exits
when its stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def main():
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "w") as out, open(request["stderr"], "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "code": proc.returncode,
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss,
        }
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
