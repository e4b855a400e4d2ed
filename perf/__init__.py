"""The repo benchmark: five workloads, end-to-end metrics, a per-layer ledger.

Run it with ``python3 perf/run.py``; see ``perf/README.md``.
"""
