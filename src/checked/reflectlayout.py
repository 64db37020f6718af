"""Declaration-ordered record layout descriptors.

A record type opts in by registration with a fixed field order; its layout
(one ``(name, offset, size)`` descriptor per field, in declaration order) is
computed once at registration time and immutable afterwards.  Offsets follow
the reference 64-bit C rules: scalars are naturally aligned, the record is
padded to its strictest member alignment, and owned text occupies a 24-byte
block aligned to 8 (pointer, length, capacity).

Only flat records of known primitives and registered numeric types are
supported; anything else is rejected at registration, before the record
exists.
"""

from __future__ import annotations

from typing import NamedTuple

from .narrowing import _TYPES, ConstraintError, supported_types

__all__ = [
    "MemberDescriptor",
    "RecordType",
    "PRIMITIVE_LAYOUTS",
    "register_record",
    "layout_of",
    "record_size",
    "registered_record_names",
]


class MemberDescriptor(NamedTuple):
    """Placement of one field: its name, byte offset, and byte size."""

    name: str
    offset: int
    size: int


#: (size, alignment) per primitive field type on the 64-bit reference
#: platform: every numeric type is naturally aligned.  "text" models an owned
#: string: three 8-byte words.
PRIMITIVE_LAYOUTS: dict[str, tuple[int, int]] = {
    **{t.name: (t.byte_size, t.byte_size) for t in supported_types()},
    "text": (24, 8),
}


class RecordType(NamedTuple):
    """A registered record: ordered fields plus the computed layout."""

    name: str
    fields: tuple[tuple[str, str], ...]
    layout: tuple[MemberDescriptor, ...]
    size: int
    alignment: int


_RECORDS: dict[str, RecordType] = {}


def _align_up(offset: int, alignment: int) -> int:
    return (offset + alignment - 1) // alignment * alignment


def register_record(name: str, fields) -> RecordType:
    """Register a record type and fix its layout.

    ``fields`` is an ordered iterable of ``(field_name, primitive)`` pairs,
    each a 2-item tuple or list.  Malformed fields, unknown primitives,
    duplicate or invalid names, and re-registration are all rejected here,
    before anything is registered, so every registered record has a valid
    layout.
    """
    if not isinstance(name, str) or not name.isidentifier():
        raise ConstraintError(f"record name {name!r} is not an identifier")
    if name in _RECORDS:
        raise ConstraintError(f"record {name!r} already registered")
    normalized: list[tuple[str, str]] = []
    seen: set[str] = set()
    descriptors: list[MemberDescriptor] = []
    offset = 0
    alignment = 1
    try:
        entries = iter(fields)
    except TypeError:
        raise ConstraintError(f"record fields {fields!r} are not an iterable of pairs") from None
    for entry in entries:
        if not isinstance(entry, (tuple, list)) or len(entry) != 2:
            raise ConstraintError(f"field {entry!r} is not a (name, type) pair")
        field_name, primitive = entry
        if not isinstance(field_name, str) or not field_name.isidentifier():
            raise ConstraintError(f"field name {field_name!r} is not an identifier")
        if field_name in seen:
            raise ConstraintError(f"duplicate field name {field_name!r}")
        if not isinstance(primitive, str) or (primitive not in PRIMITIVE_LAYOUTS and primitive not in _TYPES):
            raise ConstraintError(f"unknown field type {primitive!r}")
        seen.add(field_name)
        normalized.append((field_name, primitive))
        # a numeric type registered after import is naturally aligned
        size, align = PRIMITIVE_LAYOUTS.get(primitive) or (_TYPES[primitive].byte_size,) * 2
        offset = _align_up(offset, align)
        descriptors.append(MemberDescriptor(field_name, offset, size))
        offset += size
        alignment = max(alignment, align)
    total = _align_up(offset, alignment)

    record = RecordType(name, tuple(normalized), tuple(descriptors), total, alignment)
    _RECORDS[name] = record
    return record


def _resolve(record) -> RecordType:
    """What a failed lookup by name leaves: a ``RecordType``, or the error."""
    if isinstance(record, RecordType):
        return record
    if isinstance(record, str):
        raise ConstraintError(f"unknown record type {record!r}") from None
    raise ConstraintError(f"cannot interpret {record!r} as a record type") from None


def layout_of(record) -> tuple[MemberDescriptor, ...]:
    """The record's member descriptors, one per field in declaration order."""
    try:  # a registered name, in this frame; the rest, unhashables too, below
        return _RECORDS[record].layout
    except (KeyError, TypeError):
        return _resolve(record).layout


def record_size(record) -> int:
    """Total padded size of the record in bytes."""
    try:
        return _RECORDS[record].size
    except (KeyError, TypeError):
        return _resolve(record).size


def registered_record_names() -> tuple[str, ...]:
    return tuple(_RECORDS)


# Reference records, also used by the layout demo.  X is the classic
# byte / int / owned-text shape with interior padding.
register_record("X", [("a", "i8"), ("b", "i32"), ("c", "text")])
register_record("Empty", [])
register_record("Word", [("w", "u64")])
register_record("Mixed", [
    ("flag", "i8"),
    ("count", "u16"),
    ("tag", "i8"),
    ("ratio", "f64"),
    ("scale", "f32"),
])
register_record("AllInts", [
    ("a", "i8"), ("b", "i16"), ("c", "i32"), ("d", "i64"),
    ("e", "u8"), ("f", "u16"), ("g", "u32"), ("h", "u64"),
])
register_record("Tail", [("big", "f64"), ("small", "i8")])
