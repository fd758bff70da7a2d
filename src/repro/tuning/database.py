"""Kept for ``benchmarks/e2e/layers.py:39``; the function lives in the
model registry."""
from ..models.registry import model_source_hash  # noqa: F401
