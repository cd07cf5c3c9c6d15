"""The repository's benchmark: three TreePM workloads, end-to-end step
metrics, and a traced per-layer breakdown.  Run ``python3
perfbench/run.py --help``; the metrics are described in
``perfbench/README.md``."""
