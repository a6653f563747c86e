"""Run one child process and account for its whole process tree.

`wait4` on the child returns the resources of the child plus every
descendant it reaped (the sweep's pool workers are joined, so they are
reaped by the CLI process).  `RUSAGE_CHILDREN` of the harness would instead
be a running total over every child the harness ever reaped, so it is not
used.

Before reaping, the exited child is inspected with `waitid(WNOWAIT)`: its
`/proc/<pid>/stat` still holds its own CPU time and the CPU time of the
children it reaped.  That split is the self-check that the tree numbers
include the pool workers.
"""

from __future__ import annotations

import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import Optional

_TICK = os.sysconf("SC_CLK_TCK")


@dataclass
class TreeUsage:
    wall_s: float
    cpu_s: float  # user + sys of the child and every descendant it reaped
    peak_rss_mb: float  # largest resident set of any process in the tree
    exit_code: int
    own_cpu_s: Optional[float]  # the child alone, from /proc; None if unreadable
    reaped_cpu_s: Optional[float]  # descendants reaped by the child
    timed_out: bool


def _stat_times(pid: int):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None, None
    utime, stime, cutime, cstime = (int(v) for v in fields[11:15])
    return (utime + stime) / _TICK, (cutime + cstime) / _TICK


def run_tree(argv, *, cwd, env, log_path, timeout_s: float = 170.0) -> TreeUsage:
    """Run ``argv`` to completion and return its process-tree usage.

    The child gets its own session so that a timeout kills the whole group,
    pool workers included.  stdout and stderr go to ``log_path``.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL, start_new_session=True,
        )
        killed = threading.Event()

        def kill_group():
            killed.set()
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(timeout_s, kill_group)
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
        finally:
            timer.cancel()
        own, reaped = _stat_times(proc.pid)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return TreeUsage(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=proc.returncode,
        own_cpu_s=own,
        reaped_cpu_s=reaped,
        timed_out=killed.is_set(),
    )
