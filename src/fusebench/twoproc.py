"""One forked child does the second half of a job while this process does the first.

Parsing or formatting text and the GA's fusion loop hold the GIL, so on a
process allowed at least two CPUs (``os.sched_getaffinity``) a caller may
hand half of a large job to a forked child.  The child writes its half into
an unnamed temporary file in ``TMPDIR``, which this process reads once the
child has exited.  Only an input past ``_FORK_MIN_BYTES`` (1 MiB) forks: the
fork, with the page copies it causes, costs about what converting half a
megabyte of CSV text does.  On a 2-CPU Xeon, two processes loaded a 0.57 MB
file no faster than one, and a 1.09 MB file in 0.71x the time.  If anything
fails, no temporary file, no process to spare or a failed child, this
process does that half itself, so the results and errors are always those
of one process.
"""

from __future__ import annotations

import contextlib
import io
import os
import tempfile
import warnings

_FORK_MIN_BYTES = 1 << 20


def forks(size: int) -> bool:
    """Whether an input of ``size`` bytes is split between two processes."""
    return (size > _FORK_MIN_BYTES and hasattr(os, "fork")
            and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2)


def in_two_processes(first, second, read) -> tuple:
    """``(first(), read(spool))``: ``second(spool)`` writes bytes into a
    binary file, which ``read`` gets from its start.

    A forked child runs ``second`` into an unnamed temporary file while this
    process runs ``first``; the child always leaves through ``os._exit``, so
    none of this process's cleanup runs twice, and this process reaps it
    before reading the file.  On any failure, no temporary file, no process
    to spare or a child status other than 0, this process runs ``second``
    itself, into memory.  The temporary file is closed on every path.
    """
    with contextlib.ExitStack() as stack:
        pid = None
        with contextlib.suppress(OSError), warnings.catch_warnings():
            # Python 3.12+ warns that a fork in a process with threads, such
            # as OpenBLAS's, may deadlock the child.  The child parses or
            # formats text, or fuses and sorts score columns, with the
            # interpreter and numpy's own loops: it calls no BLAS and starts
            # no thread.
            warnings.filterwarnings("ignore", r".*fork\(\) may lead to deadlocks",
                                    DeprecationWarning)
            spool = stack.enter_context(tempfile.TemporaryFile())
            pid = os.fork()
        if pid == 0:
            try:
                second(spool)
                spool.flush()
                os._exit(0)
            finally:
                os._exit(1)
        try:
            mine = first()
        finally:
            status = os.waitpid(pid, 0)[1] if pid else 1
        if status != 0:
            spool = io.BytesIO()
            second(spool)
        spool.seek(0)
        return mine, read(spool)
