"""Traces a cluster worker spawned by a traced ``e2ebench/launcher.py``.

The launcher puts this directory first on its workers' PYTHONPATH and
names its span file in ``E2EBENCH_WORKER_SPANS``; Python imports this
module at start-up, before the worker's own code runs.  Without that
variable it does nothing.
"""

import os

if os.environ.get("E2EBENCH_WORKER_SPANS"):
    import sys

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from launcher import WORKER_SPANS_ENV, trace_worker

    trace_worker(os.environ[WORKER_SPANS_ENV])
