"""The repository benchmark: time to sigma, Monte-Carlo cost at equal
accuracy and service latency, traced per layer.  Entry point:
``python3 perfbench/run.py`` (see ``perfbench/README.md``)."""
