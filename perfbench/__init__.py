"""The served-path benchmark (see ``perfbench/README.md``).

``python3 perfbench/run.py --workload NAME --seed N`` is the entry
point; nothing here is imported by ``src/``.
"""
