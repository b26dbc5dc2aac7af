"""One benchmark operation in a fresh interpreter; run.py starts it.

``setup_s`` ends when ``import fusebench`` completes, so nothing else is
imported before it.
"""

import time

import fusebench  # noqa: F401

IMPORTED = time.monotonic()

import ops  # noqa: E402

ops.main(IMPORTED)
