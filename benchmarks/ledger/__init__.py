"""Performance ledger: one benchmark for the four run paths.

See ``README.md`` in this directory.  ``bench.py`` measures one
workload (the command ``BENCHMARK.json`` names); ``python -m
benchmarks.ledger run|compare|selftest`` is the ledger around it.
"""
