"""One forked child does part of a job while this process does the rest.

Work in the interpreter holds the GIL, so a process allowed at least two
CPUs (``os.sched_getaffinity``) may hand part of a job to a forked child.
:func:`forks` says only whether this process can split a job; each caller
decides, next to its own measurement, when a job is worth a child.  The
child writes its part into an unnamed temporary file in ``TMPDIR``, which
this process reads once the child has exited.  If anything fails, no
temporary file, no process to spare or a failed child, this process does
that part itself, so the results and errors are always those of one
process.
"""

from __future__ import annotations

import contextlib
import io
import os
import tempfile
import warnings


def forks() -> bool:
    """Whether this process can split a job: it can fork, and it may run on
    at least two CPUs."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


def in_two_processes(first, second, read) -> tuple:
    """``(first(), read(spool))``: ``second(spool)`` writes bytes into a
    binary file, which ``read`` gets from its start.

    A forked child runs ``second`` into an unnamed temporary file while this
    process runs ``first``; the child always leaves through ``os._exit``, so
    none of this process's cleanup runs twice, and this process reaps it
    before reading the file.  On any failure, no temporary file, no process
    to spare or a child status other than 0, this process runs ``second``
    itself, into memory.  If ``first`` raises, the child's work is of no
    use: it is killed before it is reaped, so the error reaches the caller
    without waiting for ``second`` to finish.  The temporary file is closed
    on every path.
    """
    with contextlib.ExitStack() as stack:
        pid = None
        with contextlib.suppress(OSError), warnings.catch_warnings():
            # Python 3.12+ warns that a fork in a process with threads, such
            # as OpenBLAS's, may deadlock the child.  Every caller's
            # ``second`` runs the interpreter and numpy's own loops: it
            # calls no BLAS and starts no thread.
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
        except BaseException:
            if pid:
                # imported here: signal's enum set-up adds 0.7 ms to importing fusebench
                import signal
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitpid(pid, 0)[1] if pid else 1
        if status != 0:
            spool = io.BytesIO()
            second(spool)
        spool.seek(0)
        return mine, read(spool)
