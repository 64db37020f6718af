"""Checked numeric and range types: conversions that refuse to lose
information, a wrapper that makes the checks implicit, bounds-checked spans,
constraint-dispatched sorting, a checked placeholder formatter, and record
layout descriptors.

Type-only decisions (can this pair of types ever narrow? which sort path
applies?) are made once per type, not per value; per-value tests run only
where they can actually fail.
"""

from .narrowing import (
    F32,
    F64,
    I8,
    I16,
    I32,
    I64,
    SF16,
    U8,
    U16,
    U32,
    U64,
    NARROWING_MATRIX,
    ConstraintError,
    NarrowError,
    NumericKind,
    NumericTraits,
    NumType,
    can_narrow,
    can_narrow_to,
    convert,
    convert_to,
    deduced_type,
    narrow_checker,
    numeric_type,
    register_numeric_type,
    supported_types,
    traits_of,
    will_narrow,
)
from .number import CheckedOverflowError, Number, common_type, compare_lt
from .span import RangeError, Span, is_spanable, register_spanable
from .rangealg import (
    Buffer,
    LinkedList,
    RangeCategory,
    SortDispatchReport,
    SortPath,
    category_of,
    draw_all,
    greater,
    is_power_of_two,
    less,
    register_random_access,
    sort,
    sort_forward,
    sort_random_access,
)
from .printfmt import FormatError, FormatErrorKind, format_render, print_concat, render
from .reflectlayout import (
    PRIMITIVE_LAYOUTS,
    MemberDescriptor,
    RecordType,
    layout_of,
    record_size,
    register_record,
    registered_record_names,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # narrowing
    "NumericKind", "NumericTraits", "NumType", "NarrowError", "ConstraintError",
    "NARROWING_MATRIX", "numeric_type", "supported_types", "register_numeric_type",
    "deduced_type", "traits_of", "can_narrow_to", "can_narrow", "narrow_checker",
    "will_narrow", "convert_to", "convert",
    "I8", "I16", "I32", "I64", "U8", "U16", "U32", "U64", "F32", "F64", "SF16",
    # number
    "CheckedOverflowError", "Number", "common_type", "compare_lt",
    # span
    "RangeError", "Span", "register_spanable", "is_spanable",
    # rangealg
    "RangeCategory", "SortPath", "SortDispatchReport", "less", "greater",
    "register_random_access", "category_of", "sort", "sort_random_access",
    "sort_forward", "is_power_of_two", "Buffer", "LinkedList", "draw_all",
    # printfmt
    "FormatErrorKind", "FormatError", "render", "print_concat", "format_render",
    # reflectlayout
    "MemberDescriptor", "RecordType", "PRIMITIVE_LAYOUTS", "register_record",
    "layout_of", "record_size", "registered_record_names",
]
