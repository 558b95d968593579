"""Run one command and report what it used, measured from a small parent.

    python3 -S perfbench/launch.py REPORT TIMEOUT PROGRAM [ARG ...]

A child started by vfork (as ``subprocess`` and ``posix_spawn`` start
them) is charged its parent's peak resident set in ``ru_maxrss``.  The
peak of ``run.py`` itself is about 20 MiB, as large as a small srgkit
command, so ``run.py`` starts every command through this process, whose
peak is far smaller.  It writes one line to REPORT: exit code, wall
seconds, peak RSS in KiB, CPU seconds (user plus system) and whether
TIMEOUT seconds passed, in which case the command was killed.
"""

import os
import signal
import sys
import time


def main() -> int:
    report, timeout, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    expired = []

    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)

    def expire(signum, frame) -> None:
        expired.append(True)
        os.kill(pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    cpu = usage.ru_utime + usage.ru_stime
    with open(report, "w") as f:
        f.write(f"{os.waitstatus_to_exitcode(status)} {wall!r} {usage.ru_maxrss} {cpu!r} {int(bool(expired))}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
