"""Run one command and print its own wall time, CPU time, peak RSS and exit code.

    python -S perfbench/launch.py STDOUT STDERR PROGRAM [ARG ...]

A child's peak RSS counts the memory of the process that spawned it, since
the child starts as a copy of it.  The harness therefore spawns through this
small launcher (started with -S, importing nothing it does not need), so the
figure is the command's own and not the harness's.  Prints one line:
``wall_s cpu_s maxrss_kb exit_code``.
"""

import os
import sys
import time

stdout_path, stderr_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
actions = [
    (os.POSIX_SPAWN_OPEN, 1, stdout_path, flags, 0o644),
    (os.POSIX_SPAWN_OPEN, 2, stderr_path, flags, 0o644),
]
start = time.perf_counter()
pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
print(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, os.waitstatus_to_exitcode(status))
