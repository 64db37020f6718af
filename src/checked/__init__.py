"""Checked numeric and range types: conversions that refuse to lose
information, a wrapper that makes the checks implicit, bounds-checked spans,
constraint-dispatched sorting, a checked placeholder formatter, and record
layout descriptors.

Type-only decisions (can this pair of types ever narrow? which sort path
applies?) are made once per type, not per value; per-value tests run only
where they can actually fail.

The package re-exports each module's ``__all__``, so every public name is
declared once, in the module that defines it.
"""

from . import narrowing, rangealg, printfmt, reflectlayout
from .narrowing import *
from .rangealg import *
from .printfmt import *
from .reflectlayout import *

__version__ = "0.1.0"

__all__ = [
    "__version__", *narrowing.__all__, *rangealg.__all__,
    *printfmt.__all__, *reflectlayout.__all__,
]
