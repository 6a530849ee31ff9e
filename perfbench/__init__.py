"""Repository benchmark: workloads, tracing and the ``run.py`` command."""
