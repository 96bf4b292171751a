"""Starts the benchmark's child processes and reports their wall time and
peak resident memory, one JSON request and reply per line on stdin/stdout.

A process's peak RSS (``ru_maxrss``) starts from the peak of the process
that forked it, and the benchmark process itself holds the generated
inputs.  Children are therefore forked from this small process, which
the benchmark starts before it loads numpy or any input.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["log"], "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                req["cmd"], stdout=log, stderr=subprocess.STDOUT, env=req["env"], cwd=req["cwd"]
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        reply = {"code": code, "wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
