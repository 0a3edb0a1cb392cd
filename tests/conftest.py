"""Shared pytest wiring: one BLAS thread, and the acceptance scorecard
replayed after the run.

The bit-equality tests and ``tests/golden.json`` were checked with one BLAS
thread, as CI and ``bench/run.py`` run; OpenBLAS splits a matrix product
differently across threads, so the last bits can change with the thread
count.  numpy is not yet imported when pytest loads this file, so setting the
variables here takes effect; a value the caller set is kept.

The acceptance tests each record one ``ACCEPTANCE n: PASS|FAIL`` line; output
capture would hide the lines for passing tests, so they are replayed here in a
dedicated terminal section.
"""

import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "SCORECARD", None) if module else None
    if lines:
        terminalreporter.section("acceptance scorecard")
        for line in lines:
            terminalreporter.line(line)
