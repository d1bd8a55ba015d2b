"""Exact algebra for extendable mapping class groups of sphere products.

Submodules load on first use: ``extmcg.f2_forms`` (or ``from extmcg
import f2_forms``) imports that module and what it needs, nothing else.
"""

import importlib

__all__ = [
    "ambient_geom",
    "classifier",
    "errors",
    "f2_forms",
    "homotopy_tables",
    "sl2z",
    "smallgrp",
    "verify",
]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
