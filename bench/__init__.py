"""The repo's benchmark: four named workloads, end-to-end and per-layer
metrics, an oracle, and a traced run.  See ``bench/README.md``."""
