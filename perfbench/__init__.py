"""Benchmark of modeled latency and simulator host cost per layer."""
