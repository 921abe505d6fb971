"""End-to-end and per-layer benchmark of the FF-INT8 trainer and its wire server.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload against the public ``repro`` API with the library's
default configuration and prints one JSON result line last.  See
``perfbench/run.py`` for the workloads and metrics.
"""
