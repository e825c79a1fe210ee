"""Run one command and print its wall time, CPU time and peak RSS as JSON.

usage: python3 -S -E spawn.py STDOUT_PATH TIMEOUT_S PROGRAM [ARG ...]

The command's stdout goes to STDOUT_PATH; its stderr is inherited.  It
runs in its own process group, which is killed on timeout and again after
exit, so no worker outlives the measurement.  CPU time and peak RSS come
from wait4, which covers the command and every descendant it waited for.

Start this as a fresh, lean interpreter: on Linux a child created by
vfork and exec starts with its parent's RSS high-water mark, so spawning
the command straight from a large benchmark process would report that
process's memory as the command's peak.
"""

import json
import os
import signal
import sys
import time


def _timeout(signum, frame):
    raise TimeoutError


def main() -> None:
    out_path, timeout, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    fd = os.open(out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    signal.signal(signal.SIGALRM, _timeout)
    start = time.perf_counter()
    pid = os.posix_spawn(
        argv[0], argv, os.environ,
        file_actions=[(os.POSIX_SPAWN_DUP2, fd, 1)], setpgroup=0,
    )
    timed_out = False
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _, status, usage = os.wait4(pid, 0)
    except TimeoutError:
        timed_out = True
        os.killpg(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - start
    os.close(fd)
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    print(json.dumps({
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "exit": os.waitstatus_to_exitcode(status),
        "timed_out": timed_out,
    }))


if __name__ == "__main__":
    main()
