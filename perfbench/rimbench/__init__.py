"""The RIM benchmark's own code: inputs, workloads, layer probes, statistics.

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root.  The program
under test is imported from ``src/`` of the same checkout.
"""
