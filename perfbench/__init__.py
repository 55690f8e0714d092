"""End-to-end benchmark of the checkpoint runtime (``python3 perfbench/run.py``)."""
