"""The repository benchmark: host cost per layer of ``repro``.

Run it from the repository root with ``python3 perfbench/run.py --workload
<name> --seed <n> --seconds <s> --trace <0|1>``; see ``perfbench/README.md``
for the workloads, the metrics and the layer-to-metric map.
"""
