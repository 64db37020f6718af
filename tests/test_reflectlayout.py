import struct

import pytest

from checked import (
    U16,
    ConstraintError,
    MemberDescriptor,
    NumericKind,
    RecordType,
    layout_of,
    record_size,
    register_numeric_type,
    register_record,
    registered_record_names,
)

import oracle

ON_64_BIT = struct.calcsize("P") == 8


class TestReferenceRecords:
    def test_x_names_in_declaration_order(self):
        assert [d.name for d in layout_of("X")] == ["a", "b", "c"]

    @pytest.mark.skipif(not ON_64_BIT, reason="reference offsets assume a 64-bit platform")
    def test_x_reference_values(self):
        assert layout_of("X") == (
            MemberDescriptor("a", 0, 1),
            MemberDescriptor("b", 4, 4),
            MemberDescriptor("c", 8, 24),
        )
        assert record_size("X") == 32

    def test_empty_record(self):
        assert layout_of("Empty") == ()
        assert record_size("Empty") == 0

    def test_single_word(self):
        assert layout_of("Word") == (MemberDescriptor("w", 0, 8),)
        assert record_size("Word") == 8

    def test_reference_set_is_large_enough(self):
        names = registered_record_names()
        assert "X" in names and len(names) >= 5


class TestHostOracle:
    @pytest.mark.parametrize("name", ["X", "Empty", "Word", "Mixed", "AllInts", "Tail"])
    def test_builtin_records_match_the_host_layout(self, name):
        from checked.reflectlayout import _RECORDS

        record = _RECORDS[name]
        expected_rows, expected_size = oracle.ctypes_layout(record.fields)
        got_rows = [(d.name, d.offset, d.size) for d in record.layout]
        assert got_rows == expected_rows
        assert record.size == expected_size

    def test_fresh_registration_matches_the_host_layout(self):
        fields = [("x", "u8"), ("y", "i64"), ("z", "u16"), ("w", "f32")]
        record = register_record("FreshProbe", fields)
        expected_rows, expected_size = oracle.ctypes_layout(fields)
        assert [(d.name, d.offset, d.size) for d in record.layout] == expected_rows
        assert record.size == expected_size


class TestInvariants:
    def test_offsets_non_decreasing_and_bounded(self):
        from checked.reflectlayout import _RECORDS

        for record in _RECORDS.values():
            offsets = [d.offset for d in record.layout]
            assert offsets == sorted(offsets)
            for d in record.layout:
                assert d.size >= 0
                assert d.offset + d.size <= record.size

    def test_layout_is_fixed_at_registration(self):
        layout = layout_of("X")
        assert layout is layout_of("X")
        assert isinstance(layout, tuple)


class TestRejections:
    def test_unknown_record(self):
        with pytest.raises(ConstraintError):
            layout_of("NoSuchRecord")

    def test_unknown_primitive(self):
        with pytest.raises(ConstraintError):
            register_record("BadField", [("a", "i128")])

    @pytest.mark.parametrize("primitive", [U16, "U16", "", None, ["i8"]], ids=repr)
    def test_a_field_type_is_a_registered_name(self, primitive):
        # a type object is refused too: a field names its type
        with pytest.raises(ConstraintError, match=r"^unknown field type "):
            register_record("BadFieldType", [("a", primitive)])
        assert "BadFieldType" not in registered_record_names()

    @pytest.mark.parametrize("fields", [
        5, None, "ab", [("a", "i8", 1)], [("a",)], [("a", "i8"), ("b",)], [("a", "i8"), "bc"],
        [{"a": "i8"}], [("a", "i8"), iter(("b", "i8"))],
    ], ids=repr)
    def test_malformed_fields_register_nothing(self, registry, fields):
        before = registered_record_names()
        with pytest.raises(ConstraintError, match=r" (is not|are not an iterable of) "):
            register_record("Malformed", fields)
        assert registered_record_names() == before

    def test_a_field_may_be_a_list_pair(self, registry):
        record = register_record("ListPairs", [["a", "i8"], ("b", "i32")])
        assert record.fields == (("a", "i8"), ("b", "i32"))
        assert record_size("ListPairs") == 8

    def test_a_type_registered_after_import_is_looked_up_by_name(self, registry):
        register_numeric_type("u24_field_test", NumericKind.UNSIGNED_INT, 24, 3)
        record = register_record("U24Field", [("a", "i8"), ("b", "u24_field_test")])
        assert [(m.offset, m.size) for m in record.layout] == [(0, 1), (3, 3)]
        assert record.size == 6
        registry()
        with pytest.raises(ConstraintError, match=r"^unknown field type 'u24_field_test'$"):
            register_record("U24Field", [("b", "u24_field_test")])

    def test_duplicate_field(self):
        with pytest.raises(ConstraintError):
            register_record("DupField", [("a", "i8"), ("a", "i8")])

    def test_bad_names(self):
        with pytest.raises(ConstraintError):
            register_record("bad name", [("a", "i8")])
        with pytest.raises(ConstraintError):
            register_record("BadFieldName", [("not a name", "i8")])

    def test_re_registration(self):
        with pytest.raises(ConstraintError):
            register_record("X", [("a", "i8")])

    def test_non_record_lookup(self):
        with pytest.raises(ConstraintError):
            layout_of(42)


class _Name(str):
    pass


class TestLookup:
    """What ``layout_of`` and ``record_size`` accept.  An error is exactly a
    ``ConstraintError``: ``pytest.raises(TypeError)`` would also pass on the
    unhashable-key ``TypeError`` of a dict lookup."""

    @pytest.mark.parametrize("record, message", [
        ([], "cannot interpret [] as a record type"),
        ({}, "cannot interpret {} as a record type"),
        (42, "cannot interpret 42 as a record type"),
        (None, "cannot interpret None as a record type"),
        ("NoSuchRecord", "unknown record type 'NoSuchRecord'"),
        (_Name("NoSuchRecord"), "unknown record type 'NoSuchRecord'"),
    ], ids=repr)
    def test_refusals(self, record, message):
        for lookup in (layout_of, record_size):
            with pytest.raises(Exception) as info:
                lookup(record)
            assert type(info.value) is ConstraintError, (lookup, info.value)
            assert str(info.value) == message
            assert info.value.__suppress_context__  # no lookup error shown behind it

    def test_a_str_subclass_names_the_record(self):
        assert layout_of(_Name("X")) is layout_of("X")
        assert record_size(_Name("X")) == record_size("X")

    def test_a_record_type_stands_for_itself(self):
        from checked.reflectlayout import _RECORDS

        registered = _RECORDS["Mixed"]
        assert layout_of(registered) is registered.layout and record_size(registered) == registered.size
        loose = RecordType("Loose", (("a", "u16"),), (MemberDescriptor("a", 0, 2),), 2, 2)
        assert "Loose" not in registered_record_names()
        assert layout_of(loose) is loose.layout and record_size(loose) == 2
