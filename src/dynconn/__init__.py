"""Dynamic undirected-graph connectivity and bipartiteness with metered parallel cost."""

from .costmodel import (
    ArbitraryPolicy,
    CommonPolicy,
    CostMeter,
    MeterError,
)

__all__ = [
    "ArbitraryPolicy",
    "CommonPolicy",
    "CostMeter",
    "MeterError",
    "DynamicConnectivity",
    "DynamicBipartiteness",
]


def __getattr__(name):
    if name in ("DynamicConnectivity", "DynamicBipartiteness"):
        from . import sparsify

        return getattr(sparsify, name)
    raise AttributeError(name)
