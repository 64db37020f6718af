"""The public surface: the exported names, the record types, and what a
fresh ``import checked`` loads."""

import os
import subprocess
import sys

import pytest

import checked
from checked import (
    I8,
    MemberDescriptor,
    NumericKind,
    NumericTraits,
    RecordType,
    SortDispatchReport,
    SortPath,
    layout_of,
    sort,
)
from checked.reflectlayout import _RECORDS

PUBLIC_NAMES = [
    "__version__",
    # narrowing
    "NumericKind", "NumericTraits", "NumType", "NarrowError", "ConstraintError",
    "NARROWING_MATRIX", "numeric_type", "supported_types", "register_numeric_type",
    "deduced_type", "traits_of", "can_narrow_to", "can_narrow", "narrow_checker",
    "will_narrow", "convert_to", "convert",
    "I8", "I16", "I32", "I64", "U8", "U16", "U32", "U64", "F32", "F64", "SF16",
    # number
    "CheckedOverflowError", "Number", "common_type", "compare_lt",
    # rangealg: spans, then the range algorithms
    "RangeError", "Span", "register_spanable", "is_spanable",
    "RangeCategory", "SortPath", "SortDispatchReport", "less", "greater",
    "register_random_access", "category_of", "sort", "sort_random_access",
    "sort_forward", "is_power_of_two", "Buffer", "LinkedList", "draw_all",
    # printfmt
    "FormatErrorKind", "FormatError", "render", "print_concat", "format_render",
    # reflectlayout
    "MemberDescriptor", "RecordType", "PRIMITIVE_LAYOUTS", "register_record",
    "layout_of", "record_size", "registered_record_names",
]


def test_all_is_pinned_in_names_and_order():
    assert checked.__all__ == PUBLIC_NAMES
    assert all(hasattr(checked, name) for name in PUBLIC_NAMES)


# Per public record type: the library's own instance, the same record built
# afresh, its field names, and its repr.
_RECORD_CASES = {
    "NumericTraits": (
        lambda: I8.traits,
        lambda: NumericTraits(NumericKind.SIGNED_INT, 7, 1),
        ("kind", "digits", "byte_size"),
        "NumericTraits(kind=<NumericKind.SIGNED_INT: 'signed-int'>, digits=7, byte_size=1)",
    ),
    "SortDispatchReport": (
        lambda: sort([2, 1]),
        lambda: SortDispatchReport(SortPath.RANDOM_ACCESS, 2),
        ("chosen_path", "element_count"),
        "SortDispatchReport(chosen_path=<SortPath.RANDOM_ACCESS: 'RandomAccess'>, "
        "element_count=2)",
    ),
    "MemberDescriptor": (
        lambda: layout_of("X")[0],
        lambda: MemberDescriptor("a", 0, 1),
        ("name", "offset", "size"),
        "MemberDescriptor(name='a', offset=0, size=1)",
    ),
    "RecordType": (
        lambda: _RECORDS["Word"],
        lambda: RecordType("Word", (("w", "u64"),), (MemberDescriptor("w", 0, 8),), 8, 8),
        ("name", "fields", "layout", "size", "alignment"),
        "RecordType(name='Word', fields=(('w', 'u64'),), "
        "layout=(MemberDescriptor(name='w', offset=0, size=8),), size=8, alignment=8)",
    ),
}


@pytest.mark.parametrize("name", sorted(_RECORD_CASES))
class TestRecords:
    def test_repr(self, name):
        library, fresh, _, text = _RECORD_CASES[name]
        assert type(library()).__name__ == name
        assert repr(library()) == text
        assert repr(fresh()) == text

    def test_fields_cannot_be_set(self, name):
        library, _, fields, _ = _RECORD_CASES[name]
        record = library()
        for field in fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = None
        assert repr(record) == _RECORD_CASES[name][3]

    def test_equal_fields_compare_and_hash_equal(self, name):
        library, fresh, _, _ = _RECORD_CASES[name]
        a, b = library(), fresh()
        assert a is not b
        assert a == b and hash(a) == hash(b)

    def test_a_record_is_a_tuple_of_its_fields(self, name):
        library, _, fields, _ = _RECORD_CASES[name]
        record = library()
        values = tuple(getattr(record, field) for field in fields)
        assert record == values and hash(record) == hash(values)
        assert record[0] == values[0]
        assert (*record,) == values


def test_fresh_import_loads_neither_dataclasses_nor_inspect():
    """Nor any ``checked`` module beyond the library's five: the command line
    and the demos stay out of the import."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(checked.__file__)))
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "before = set(sys.modules)\n"
        "import checked\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60).stdout
    added = set(out.split())
    assert {m for m in added if m.split(".")[0] == "checked"} == {
        "checked", "checked.narrowing", "checked.rangealg",
        "checked.printfmt", "checked.reflectlayout",
    }, sorted(added)
    assert not added & {"dataclasses", "inspect"}, sorted(added)


def test_span_module_is_gone():
    """Spans live in ``checked.rangealg``; no ``checked.span`` shim is left."""
    with pytest.raises(ModuleNotFoundError):
        import checked.span  # noqa: F401
