"""Length-carrying, bounds-checked views over contiguous storage.

A ``Span`` never owns elements; it records a backing sequence, a start
offset, and a validated length.  A count, bound or index other than an
exact u32 int goes through ``convert(value, U32)`` first, so a negative or
fractional index raises ``NarrowError`` before any range logic runs (there
is no Python-style wrap-around), and an index outside ``[0, len)`` raises
``RangeError``.  An int that no registered type holds raises
``ConstraintError`` (``Span(r)[2**64]``), as in ``convert``; with an
``i128`` registered, the same index raises ``NarrowError``.

The bounds of a span are proved once, when it is built; algorithms that
walk the whole window (the random-access sort, ``LinkedList(span)``) read
and write the backing store directly, between ``_offset`` and
``_offset + _length``.  How each store type is viewed, read and written
back is one row of ``_STORES``, keyed by exact type, which ``Span`` and the
sort read themselves: a span over an exact ``Buffer`` views the list the
``Buffer`` keeps, as a nested span views its base store, so its reads and
writes cost what a list span's do; a subclass or a registered type has no
row and keeps its own item access.  A write checks only its index, so a
read-only ``memoryview`` refuses it with its own ``TypeError``; every sort
refuses that store with ``ConstraintError`` before reading it.

The one deliberate hole is ``Span.unchecked``: the caller asserts the
extent, nothing validates it, and the name exists to stand out in review.
Indexing through such a span still checks against the claimed length.

Spans are plain values and may be shared freely across threads; access to
the underlying elements is not synchronized here, that contract stays with
the caller, as for any non-owning view.
"""

from __future__ import annotations

from array import array

from .narrowing import U32, ConstraintError, Number, convert

__all__ = ["RangeError", "Span", "register_spanable", "is_spanable"]


class RangeError(IndexError):
    """An index or bound failed the span's length check."""

    def __init__(self, attempted, length: int) -> None:
        self.attempted = attempted
        self.length = length
        super().__init__(f"index {attempted} out of range for span of length {length}")


# Backing stores, one row per exact type: (the list a span views in the
# store's place, or None; how a sorted window is packed for one slice
# assignment: ``list`` takes the sorted list as it is, another type is called
# with the store's typecode, None writes element by element).  A store with a
# row is read in one slice.  Immutable str/bytes/tuple have no row.
_STORES: dict = {list: (None, list), bytearray: (None, list), array: (None, array),
                 memoryview: (None, None)}
# The one registry of contiguous ranges (by ``isinstance``, so subclasses
# too), which the sort dispatch also reads as "random access".
_SPANABLE_TYPES: tuple[type, ...] = tuple(_STORES)


def register_spanable(cls: type) -> type:
    """Declare ``cls`` as contiguous element storage usable behind a Span."""
    global _SPANABLE_TYPES
    if not isinstance(cls, type):
        raise ConstraintError("register_spanable expects a type")
    if cls not in _SPANABLE_TYPES:
        _SPANABLE_TYPES += (cls,)
    return cls


def is_spanable(obj) -> bool:
    return isinstance(obj, Span) or isinstance(obj, _SPANABLE_TYPES)


def _as_unsigned(value) -> int:
    """Checked conversion of an index/count into the unsigned index type."""
    if type(value) is int and 0 <= value <= 0xFFFFFFFF:  # already a U32 value
        return value
    return convert(value, U32)


class Span:
    """Bounds-checked view of a contiguous range.

    ``Span(r)`` views all of ``r``; ``Span(r, n)`` views the first ``n``
    elements (``n`` may not exceed the range size); ``Span(r, lo, hi)``
    views ``[lo:hi)``.  Counts and bounds accept any numeric value and are
    converted with ``convert(value, U32)``, so ``Span(a, -500)`` raises
    ``NarrowError`` rather than producing an enormous view.
    """

    __slots__ = ("_storage", "_offset", "_length")

    def __init__(self, storage, low=None, high=None):
        row = _STORES.get(type(storage))  # a row's type is spanable: no isinstance
        if row is None and isinstance(storage, Span):
            base, offset, size = storage._storage, storage._offset, storage._length
        elif row is None and not isinstance(storage, _SPANABLE_TYPES):
            raise ConstraintError(f"{type(storage).__name__} is not a contiguous range")
        else:
            base = storage if row is None or row[0] is None else row[0](storage)
            offset, size = 0, len(base)
        if high is not None:
            lo, hi = _as_unsigned(low), _as_unsigned(high)
        else:
            lo, hi = 0, size if low is None else _as_unsigned(low)
        if hi > size:
            raise RangeError(hi, size)
        if lo > hi:
            raise RangeError(lo, size)
        self._storage = base
        self._offset = offset + lo
        self._length = hi - lo

    @classmethod
    def unchecked(cls, storage, count) -> "Span":
        """View ``count`` elements of ``storage`` on the caller's say-so.

        Nothing verifies that the storage really has ``count`` elements;
        this is the only unchecked entry point and should draw review.  The
        count itself still goes through the checked unsigned conversion, so
        a negative count raises ``NarrowError`` even here.
        """
        span = object.__new__(cls)
        span._storage = storage
        span._offset = 0
        span._length = _as_unsigned(count)
        return span

    def __len__(self) -> int:
        return self._length

    def check(self, index) -> int:
        """Validated element index: returns it when inside ``[0, len)``."""
        i = _as_unsigned(index)
        if i >= self._length:
            raise RangeError(i, self._length)
        return i

    # The fast paths accept only what ``check`` would return unchanged:
    # ``_length`` already passed the U32 check, so an exact int in
    # ``[0, len)`` is a valid U32 index, as is a ``Number`` converted here
    # through its type's u32 row, as ``convert`` converts it.  Every other
    # index, bool included, goes through ``check`` and keeps its error.

    def __getitem__(self, index):
        if type(index) is int and 0 <= index < self._length:
            return self._storage[self._offset + index]
        if type(index) is Number and (index := index._type.to[U32](index._value)) < self._length:
            return self._storage[self._offset + index]
        return self._storage[self._offset + self.check(index)]

    def __setitem__(self, index, value) -> None:
        if type(index) is int and 0 <= index < self._length:
            self._storage[self._offset + index] = value
        elif type(index) is Number and (index := index._type.to[U32](index._value)) < self._length:
            self._storage[self._offset + index] = value
        else:
            self._storage[self._offset + self.check(index)] = value

    def __iter__(self):
        # each element is read when it is reached, so writes are seen
        base = self._offset
        return map(self._storage.__getitem__, range(base, base + self._length))

    def __repr__(self) -> str:
        return (
            f"Span(length={self._length}, offset={self._offset}, "
            f"storage={type(self._storage).__name__})"
        )
