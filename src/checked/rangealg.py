"""Bounds-checked views over contiguous storage, and the range algorithms
dispatched on their constraints.

A ``Span`` never owns elements; it records a backing sequence, a start
offset, and a validated length.  A count, bound or index other than an
exact u32 int goes through ``convert(value, U32)`` first, so a negative or
fractional index raises ``NarrowError`` before any range logic runs (no
Python-style wrap-around), an index outside ``[0, len)`` raises
``RangeError``, and an int no registered type holds ``ConstraintError``,
as in ``convert``.  ``Span.unchecked`` is the one deliberate hole: the
caller asserts the extent, and the name exists to stand out in review.

Ranges have a traversal category: random access (indexed reads and writes
plus a length) or forward (repeatable iteration plus an ordered write-back),
declared by a ``range_category`` class attribute or inferred structurally.
``sort`` picks the random-access path whenever it applies, because that
constraint set strictly contains the forward one, and reports which path
ran.  Both paths read the window as its store slices it, sort it apart
from the store and write it back in one pass; only a compared window is
copied into a ``list``.  Under ``less`` or ``greater``, ``_COUNT_MIN`` or
more exact ints in ``range(256)`` are counted, not compared, proved in C
with no element's ``__eq__`` or ``__hash__`` run: an exact-int first element
in range, then the store's element type (an integer one holds only exact
ints) and the counts' keys, or ``bytes`` of the window and one ``marshal``
dump of it (a non-int's ``__index__`` may run, and from 3.12 an element's
``__buffer__``); the result is packed from raw items of the store's item
size, as a compared ``array``'s or ``memoryview``'s is by ``struct``.
Ranges satisfying neither category, element types the predicate cannot order, a
``memoryview`` not 1-D of one native code, and a store no write can change
(read-only, or with no ``__setitem__``) are rejected with
``ConstraintError`` before anything is touched.  A ``Span`` write checks
only its index, and refuses such a store alike.

How each store type is viewed, read, written back and typed is one row
of ``_STORES``, keyed by exact type: a span over an exact ``Buffer`` views
its list, as a nested span views its base store; a subclass or a registered
type has no row, no element type, and keeps its own item access.  A span's
bounds are proved once, when it is built, so the sorts read and write the
backing store directly; ``Span()``, ``LinkedList(span)`` and the in-place
sort read its fields inline, one Python frame cheaper.

Spans may be shared across threads, but element access is not synchronized
here, and a sort mutates the caller's range: don't touch it concurrently.
"""

from __future__ import annotations

import functools
import marshal
import operator
import struct
import sys
from array import array
from collections import Counter, deque
from enum import Enum
from itertools import repeat
from typing import Callable, NamedTuple, Optional

from .narrowing import F32, F64, U8, U32, ConstraintError, Number, convert, numeric_type

__all__ = [
    "RangeError",
    "Span",
    "register_spanable",
    "is_spanable",
    "RangeCategory",
    "SortPath",
    "SortDispatchReport",
    "less",
    "greater",
    "register_random_access",
    "category_of",
    "sort",
    "sort_random_access",
    "sort_forward",
    "is_power_of_two",
    "Buffer",
    "LinkedList",
    "draw_all",
]

less = operator.lt
greater = operator.gt
# The shortest window of bytes sorted by counting, one for every store: a u8 store counts faster
# from about 1024 elements (BENCH_29.json), a list of random bytes from about 2048 (BENCH_32.json).
_COUNT_MIN = 1024
_BYTE_VALUES = frozenset(range(256))
_ORDERS = (range(256), range(255, -1, -1))  # the byte values as ``less`` and as ``greater`` sorts them
# Each code a 1-D memoryview reads on every Python (as an array typecode too) -> its elements' type.
_ELEMENTS = {c: numeric_type(f"{'iu'[c.isupper()]}{8 * struct.calcsize(c)}") for c in "bBhHiIlLqQnNP"}
_ELEMENTS.update({"f": F32, "d": F64, "c": None, "?": None})
_NOT_CONTIGUOUS = "%s is not a contiguous range"


class RangeError(IndexError):
    """An index or bound failed the span's length check."""

    def __init__(self, attempted, length: int, /) -> None:
        pass  # the arguments are kept in ``args``, as ``NarrowError`` keeps them

    attempted = property(lambda self: self.args[0])
    length = property(lambda self: self.args[1])

    def __str__(self) -> str:
        return f"index {self.attempted} out of range for span of length {self.length}"


class RangeCategory(Enum):
    RANDOM_ACCESS = "random-access"
    FORWARD = "forward"


class SortPath(Enum):
    RANDOM_ACCESS = "RandomAccess"
    FORWARD_COPY = "ForwardCopy"


class SortDispatchReport(NamedTuple):
    """Which sort path ran, and over how many elements."""

    chosen_path: SortPath
    element_count: int


def is_power_of_two(n: int) -> bool:
    """True iff ``n`` is a positive power of two."""
    return 0 < n and (n & (n - 1)) == 0


class Buffer:
    """Fixed-size element storage whose size constraint is checked up front.

    The size, an int read as the exact int it holds, must be a power of
    two and at least 1024; violations raise ``ConstraintError`` when the
    buffer is created, before any storage is allocated, so no runtime error
    handler is ever needed.  Elements start as ``element_type()``.
    """

    MIN_SIZE = 1024

    range_category = RangeCategory.RANDOM_ACCESS

    __slots__ = ("element_type", "_items")

    def __init__(self, element_type: Callable, size: int):
        if not isinstance(size, int) or isinstance(size, bool):
            raise ConstraintError("buffer size must be an integer constant")
        size = int.__int__(size)  # a subclass's own operators cannot pass a refused size
        if size < self.MIN_SIZE:
            raise ConstraintError(f"buffer too small: {size} < {self.MIN_SIZE}")
        if not is_power_of_two(size):
            raise ConstraintError(f"size not binary: {size} is not a power of two")
        self.element_type = element_type
        self._items = [element_type() for _ in range(size)]

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index):
        return self._items[index]

    def __setitem__(self, index, value) -> None:
        self._items[index] = value

    def __iter__(self):
        return iter(self._items)

    def __repr__(self) -> str:
        name = getattr(self.element_type, "__name__", repr(self.element_type))
        return f"Buffer({name}, {len(self._items)})"


def _memory(view: memoryview) -> memoryview:
    """``view`` as a span keeps it: only 1-D, of one native code in ``_ELEMENTS``."""
    if view.ndim == 1 and view.format.lstrip("@") in _ELEMENTS:
        return view
    raise ConstraintError(_NOT_CONTIGUOUS % f"memoryview of format {view.format!r} and ndim {view.ndim}")


# Backing stores, one row per exact type: (what a span views in the store's
# place, or None; how a sorted window is packed for one slice assignment:
# ``list`` as it is, ``array`` in an array of the store's typecode,
# ``memoryview`` as raw items cast to its format, None element by element;
# ``element(store)``, the elements' NumType, or None for any objects).  A
# store with a row is read in one slice.  A Span over an exact Buffer views
# its list (a Span.unchecked slices through it), one over a memoryview the
# view once its shape passes.  Immutable str/bytes/tuple have no row.
_NO_ROW = (None, None, lambda store: None)
_STORES: dict = {list: (None, list, _NO_ROW[2]), bytearray: (None, list, lambda store: U8),
                 array: (None, array, lambda store: _ELEMENTS.get(store.typecode)),
                 memoryview: (_memory, memoryview,
                              lambda v: _ELEMENTS.get(v.format.lstrip("@")) if v.ndim == 1 else None),
                 Buffer: (operator.attrgetter("_items"), list, _NO_ROW[2])}
# The one registry of contiguous ranges (by ``isinstance``, so subclasses
# too), which the sort dispatch also reads as "random access".
_SPANABLE_TYPES: tuple[type, ...] = tuple(_STORES)


def register_spanable(cls: type) -> type:
    """Declare ``cls`` as contiguous element storage usable behind a Span."""
    global _SPANABLE_TYPES
    if not isinstance(cls, type):
        raise ConstraintError("register_spanable expects a type")
    for member in ("__getitem__", "__len__"):  # what every Span reads
        if not hasattr(cls, member):
            raise ConstraintError(f"{cls.__name__} does not provide {member}")
    if cls not in _SPANABLE_TYPES:
        _SPANABLE_TYPES += (cls,)
    return cls


# One registry: a registered type can back a Span and sorts by random access.
register_random_access = register_spanable


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
    views ``[lo:hi)``.  With no high bound the low one is a count, so
    ``Span(r, 3, None)`` views ``r[:3]``, not the slice ``r[3:None]``.
    Counts and bounds accept any numeric value and are converted with
    ``convert(value, U32)``, so ``Span(a, -500)`` raises ``NarrowError``
    rather than producing an enormous view.
    """

    __slots__ = ("_storage", "_offset", "_length")

    def __init__(self, storage, low=None, high=None):
        row = _STORES.get(type(storage))  # a row's type is spanable: no isinstance
        if row is None and isinstance(storage, Span):
            base, offset, size = storage._storage, storage._offset, storage._length
        elif row is None and not isinstance(storage, _SPANABLE_TYPES):
            raise ConstraintError(_NOT_CONTIGUOUS % type(storage).__name__)
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
        storage is refused as ``Span(storage)`` refuses it, and the count
        still goes through the checked unsigned conversion, so a negative
        count raises ``NarrowError`` even here.
        """
        if not is_spanable(storage):
            raise ConstraintError(_NOT_CONTIGUOUS % type(storage).__name__)
        span = object.__new__(cls)
        span._storage = _memory(storage) if type(storage) is memoryview else storage
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
        try:  # costs nothing in 3.11+ until a raise
            if type(index) is int and 0 <= index < self._length:
                self._storage[self._offset + index] = value
            elif type(index) is Number and (index := index._type.to[U32](index._value)) < self._length:
                self._storage[self._offset + index] = value
            else:
                self._storage[self._offset + self.check(index)] = value
        except ConstraintError:  # the index check's (a TypeError too): it keeps precedence
            raise
        except TypeError:  # the store's own: one that no write can change raises ConstraintError
            _require_writable(self._storage)
            raise

    def __iter__(self):
        # each element is read when it is reached, so writes are seen
        base = self._offset
        return map(self._storage.__getitem__, range(base, base + self._length))

    def __repr__(self) -> str:
        return (
            f"Span(length={self._length}, offset={self._offset}, "
            f"storage={type(self._storage).__name__})"
        )


# Iterable but unsortable: mappings and sets have no element order, the rest are immutable.
_NOT_RANGES = (dict, set, frozenset, str, bytes, tuple, range)
# Bound once for the sort path: before 3.12 an enum member load costs about 100-200 ns.
_RANDOM_ACCESS, _FORWARD = RangeCategory.RANDOM_ACCESS, RangeCategory.FORWARD
_IN_PLACE, _COPIED = SortPath.RANDOM_ACCESS, SortPath.FORWARD_COPY


def category_of(r) -> Optional[RangeCategory]:
    """Traversal category of ``r``, or None when it is not a usable range.

    A declared ``range_category`` class attribute wins; after that, known
    and registered random-access types; after that, structure (indexed
    read/write plus a length means random access, repeatable iteration plus
    a write-back path means forward).
    """
    cls = type(r)
    if cls is Span or cls in _STORES:  # subclasses take the probes below
        return _RANDOM_ACCESS
    declared = getattr(cls, "range_category", None)
    if isinstance(declared, RangeCategory):
        return declared
    if isinstance(r, _NOT_RANGES):
        return None
    if is_spanable(r) or all(hasattr(cls, m) for m in ("__getitem__", "__setitem__", "__len__", "__iter__")):
        return RangeCategory.RANDOM_ACCESS
    if hasattr(cls, "__iter__") and (hasattr(cls, "write_back") or hasattr(cls, "__setitem__")):
        return RangeCategory.FORWARD
    return None


def _host_sort(buf: list, pred: Callable) -> None:
    """Sort the copy ``buf``; elements ``pred`` cannot order raise ``ConstraintError``."""
    try:
        if buf:  # probed against itself, so a lone element's type is named too
            pred(buf[0], buf[0])
    except TypeError as exc:
        rule = "does not provide <" if pred is less else "does not satisfy the sort predicate"
        raise ConstraintError(f"{type(buf[0]).__name__} {rule}") from exc
    try:
        if pred is less:
            buf.sort()
        elif pred is greater:
            buf.sort(reverse=True)
        else:
            def cmp(x, y):
                if pred(x, y):
                    return -1
                if pred(y, x):
                    return 1
                return 0

            buf.sort(key=functools.cmp_to_key(cmp))
    except TypeError as exc:
        raise ConstraintError(f"elements are not ordered by the sort predicate: {exc}") from exc


def _read_window(store, lo: int, n: int):
    """``store[lo:lo + n]`` as the store slices it if it has a row, else as a new list."""
    try:
        buf = store[lo:lo + n] if type(store) in _STORES else list(map(store.__getitem__, range(lo, lo + n)))
    except IndexError:  # the item access of a store whose length overstates
        buf = ()
    if len(buf) == n:  # else short: that length, a Span.unchecked, or a store that shrank since
        return buf
    raise IndexError(
        f"{type(store).__name__} of length {len(store)} is too short "
        f"for {n} elements at offset {lo}"
    )


def _require_writable(store) -> None:
    """Refuse a store no sort or ``Span`` write can change: a read-only ``memoryview``,
    or a class with no ``__setitem__``."""
    if type(store) is memoryview and _memory(store).readonly:
        raise ConstraintError("memoryview store is read-only")
    if not hasattr(type(store), "__setitem__"):
        raise ConstraintError(f"{type(store).__name__} does not provide __setitem__")


def _counted(store, buf, pred: Callable) -> Optional[list]:
    """How often each byte value is in ``buf``, ``_COUNT_MIN`` or more elements as ``store`` slices
    them, in ``pred``'s order, or None to compare ``buf``, its types kept.  A window of an integer
    element type is counted off its slice.  Any other that starts with an exact int is a list, and
    ``bytes(buf)`` stops at its first element not an int in range(256), so a ``marshal`` version 2
    dump after it nests nothing: it writes an exact int as ``i`` and 4 bytes, any other object with
    another first byte, so ``n`` 5-byte slots all starting ``i`` are ``n`` exact ints.  Only a
    non-int's ``__index__``, and from 3.12 a ``__buffer__``, may run."""
    if not (pred is less or pred is greater):
        return None
    if not (type(buf[0]) is int and -1 < buf[0] < 256):  # O(1): a wide window fails fast
        return None
    element = _STORES.get(type(store), _NO_ROW)[2](store)
    if element is not None and element.min is not None:  # an integer element: only exact ints
        if not (counts := Counter(buf)).keys() <= _BYTE_VALUES:
            return None
    else:
        try:
            window, raw = bytes(buf), marshal.dumps(buf, 2)
        except Exception:  # a non-int, a value out of range, an int subclass, or what ``__index__`` raised
            return None
        if raw[5::5] != b"i" * len(buf):  # the first record not of an exact int starts a slot
            return None
        counts = Counter(window)
    return list(map(counts.get, _ORDERS[pred is greater], repeat(0)))


@functools.lru_cache(maxsize=None)  # built on first use: importing builds no table
def _items(size: int, reverse: bool) -> list:
    """The byte values, in sort order, as native raw items of ``size`` bytes: 0-127, all that a
    signed element counts, read alike as signed and as unsigned."""
    return [k.to_bytes(size, sys.byteorder) for k in _ORDERS[reverse]]


def _sorted(store, buf, pred: Callable, size: int):
    """``buf``, a window as ``store`` slices it, sorted under ``pred``: compared in a list, the only
    copy a typed window takes, or, when ``_counted`` counts it, joined in C as ``bytes`` of raw items."""
    if len(buf) < _COUNT_MIN or (counts := _counted(store, buf, pred)) is None:
        buf = buf if type(buf) is list else list(buf)
        _host_sort(buf, pred)
        return buf
    return b"".join(map(operator.mul, _items(size, pred is greater), counts))


def _sort_window(r, pred: Callable) -> int:
    """Sort a random-access range through its backing store; returns its length.

    A ``Span`` is read and written between its offset and its length, with
    no per-element check: construction proved those bounds.  The store's row
    packs the sorted window for one slice assignment (an ``array``'s or a
    ``memoryview``'s as raw items of its code, counted or packed by ``struct``,
    else as bytes or a list); without a row, it is written back element by
    element.  Only such a store or a ``memoryview`` can refuse every write.
    """
    if isinstance(r, Span):
        store, lo, n = r._storage, r._offset, r._length
    else:  # a whole range, through its row's view column
        store = r if (view := _STORES.get(type(r), _NO_ROW)[0]) is None else view(r)
        lo, n = 0, len(store)
    pack = _STORES.get(type(store), _NO_ROW)[1]
    if pack is None or pack is memoryview:
        _require_writable(store)
    size = store.itemsize if pack is array or pack is memoryview else 1
    buf = _sorted(store, _read_window(store, lo, n), pred, size)
    if pack is list:
        store[lo:lo + n] = buf
    elif pack is None:
        for i, v in enumerate(buf, lo):
            store[i] = v
    else:
        code = store.typecode if pack is array else store.format.lstrip("@")
        if code not in _ELEMENTS:  # 'u' or 'w', which ``struct`` has no code for; ``array('u')`` warns on 3.13
            window = store[:0]
            window.fromunicode("".join(buf))
        else:
            raw = buf if type(buf) is bytes else struct.pack(f"{n}{code}", *buf)
            window = array(code, raw) if pack is array else memoryview(raw).cast(store.format)
        store[lo:lo + n] = window
    return n


def _sort_copy(r, pred: Callable) -> int:
    """Sort any forward range by copying out and writing back; returns its length."""
    write_back = getattr(r, "write_back", None)
    if not callable(write_back):  # written item by item: refused before the read if it cannot be
        _require_writable(r._storage if isinstance(r, Span) else r)
    buf = _sorted(r, list(r), pred, 1)
    if callable(write_back):
        write_back(list(buf) if type(buf) is bytes else buf)  # a counted window's bytes read as ints
    else:
        for i, v in enumerate(buf):
            r[i] = v
    return len(buf)


def sort_random_access(r, pred: Callable = less) -> None:
    """Sort a random-access range in place under ``pred`` (default: ascending).

    The result is a permutation of the input; equal-element order is
    unspecified.  ``pred`` must be a strict weak ordering, that part of the
    contract stays with the caller.  The range is sorted as a copy and
    written back in one pass, so a failing comparison leaves it untouched.
    """
    if category_of(r) is not _RANDOM_ACCESS:
        raise ConstraintError("range does not provide random access")
    _sort_window(r, pred)


def sort_forward(r, pred: Callable = less) -> None:
    """Sort any forward range by copying out, sorting, and writing back.

    Works on anything at least forward (random-access ranges included) and
    leaves the range sorted under ``pred`` in traversal order.
    """
    if category_of(r) is None:
        raise ConstraintError("range is not forward-iterable with write-back")
    _sort_copy(r, pred)


def sort(r, pred: Callable = less) -> SortDispatchReport:
    """Sort ``r`` in place, picking the strictest applicable path.

    Random access wins whenever it holds (its requirements strictly include
    the forward ones); otherwise the forward copy-out path runs.  A range
    satisfying neither is rejected.  The report records the decision.
    """
    category = category_of(r)  # the report is made in C, not by ``NamedTuple``'s Python ``__new__``
    if category is _RANDOM_ACCESS:
        return tuple.__new__(SortDispatchReport, (_IN_PLACE, _sort_window(r, pred)))
    if category is _FORWARD:
        return tuple.__new__(SortDispatchReport, (_COPIED, _sort_copy(r, pred)))
    raise ConstraintError(
        f"{type(r).__name__} is neither a random-access nor a forward range"
    )


class LinkedList:
    """Linked sequence; the canonical forward-only range here.

    The values live in a ``collections.deque`` and offer appends, a length
    and front-to-back iteration, but no indexing.  ``write_back`` rewrites
    them in the same order, which is all the forward sort path needs.
    """

    range_category = RangeCategory.FORWARD

    __slots__ = ("_items",)

    def __init__(self, items=()):
        if type(items) is Span:  # its bounds are proved: one read of the window
            items = _read_window(items._storage, items._offset, items._length)
        self._items = deque(items)

    def append(self, value) -> None:
        self._items.append(value)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self):
        return iter(self._items)

    def write_back(self, values) -> None:
        """Replace the values in traversal order; a count mismatch writes none.

        A live iterator raises ``RuntimeError`` afterwards, as after ``append``.
        """
        values = values if type(values) is list else list(values)
        if len(values) != len(self._items):
            raise ValueError(f"expected {len(self._items)} values, got {len(values)}")
        self._items.clear()
        self._items.extend(values)

    def __repr__(self) -> str:
        return f"LinkedList({list(self)!r})"


def draw_all(r) -> None:
    """Call ``draw()`` once on every handle in ``r``, in order.

    Works across any forward range of heterogeneous handles; the only
    requirement is that each element exposes a callable ``draw``.
    """
    try:
        handles = iter(r)
    except TypeError as exc:
        raise ConstraintError(f"{type(r).__name__} is not iterable") from exc
    for handle in handles:
        draw = getattr(handle, "draw", None)
        if not callable(draw):
            raise ConstraintError(f"{type(handle).__name__} has no draw()")
        draw()
