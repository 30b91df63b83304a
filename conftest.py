"""Test-session setup shared by ``tests/`` and ``bench/``.

OpenBLAS sizes its thread pool when numpy loads, so the setting has to be made
here, before pytest collects ``bench/`` (the first test directory to import
numpy).  One thread is what CI runs with: the default pool stalls on small
matrices now and then, and a different thread count can move roundoff fields
of a report.  A value already in the environment is kept.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
