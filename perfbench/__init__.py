"""Campaign benchmark for the ddpp package.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``perfbench/README.md`` describes
the workloads, the metrics and how each per-layer metric maps onto an
end-to-end one.
"""
