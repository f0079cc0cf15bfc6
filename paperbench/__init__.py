"""End-to-end benchmark of the paper's fault-injection campaigns.

``python3 paperbench/run.py --workload <name>`` runs one workload from a cold
store, checks its outcomes against committed expectations and prints the
metrics; see ``paperbench/README.md``.
"""
