"""Benchmark of KG construction and graph analytics; see ``run.py``."""
