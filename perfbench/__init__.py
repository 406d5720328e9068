"""End-to-end and per-layer benchmark for dpquant.

Run it from the root of a checkout:

    python3 perfbench/run.py --workload cube-sweep --seed 1 --seconds 20 --trace 0

See README.md in this directory for the workloads, metrics and checks.
"""
