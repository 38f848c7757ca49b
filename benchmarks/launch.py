"""Run one command; print its wall s, user+sys s, peak RSS MB and exit code.

    python3 -S launch.py LOG ARGV...

The command's output goes to LOG.  CPU time and peak RSS cover the command
and every child it waited for, such as pool workers.  Start this script with
`python3 -S` and keep it free of imports: a process's ru_maxrss starts from
the resident size of the process it was forked from, so a small launcher is
what keeps the figure the command's own.
"""

import os
import sys
import time

log, argv = sys.argv[1], sys.argv[2:]
t0 = time.perf_counter()
pid = os.fork()
if pid == 0:
    try:
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        os.dup2(fd, 1)
        os.dup2(fd, 2)
        os.execvp(argv[0], argv)
    finally:
        os._exit(127)
_, status, ru = os.wait4(pid, 0)
wall = time.perf_counter() - t0
print(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024,
      os.waitstatus_to_exitcode(status))
