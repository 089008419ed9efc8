"""Run one command to its end and print its wall time and its own peak RSS.

    python3 bench/spawn.py LOG -- ARGV...

The command's output goes to LOG; one JSON line goes to stdout. The peak RSS
is the ru_maxrss that wait4 returns when the command is reaped. Linux starts
a child's ru_maxrss at the high-water RSS of the process it was forked from,
so commands are forked from this small process and not from the benchmark,
whose own RSS would otherwise be reported for every command smaller than it.
"""
import json
import os
import subprocess
import sys
import time


def main() -> int:
    log, sep, *argv = sys.argv[1:]
    if sep != "--" or not argv:
        print(__doc__, file=sys.stderr)
        return 2
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "maxrss_kib": usage.ru_maxrss,
                      "exit": proc.returncode}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
