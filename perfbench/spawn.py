"""Runs one command to exit and prints its wall time, exit code and peak RSS.

    python3 spawn.py LOG PROGRAM [ARGS...]

The child's stdout and stderr go to LOG; the launcher's stdout carries one
JSON object. The benchmark times children through this small process
because Linux charges a child's ru_maxrss with the high-water RSS of the
process it was spawned from: spawned from the benchmark's own interpreter,
which holds the generated streams, every peak_rss_mb would read high.
"""
import json
import os
import sys
import time


def main():
    log, args = sys.argv[1], sys.argv[2:]
    fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    actions = [(os.POSIX_SPAWN_DUP2, fd, 1), (os.POSIX_SPAWN_DUP2, fd, 2)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(args[0], args, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    print(json.dumps({"wall_s": wall,
                      "exit": os.waitstatus_to_exitcode(status),
                      "maxrss_kb": usage.ru_maxrss}))


if __name__ == "__main__":
    main()
