"""Constraint-dispatched range algorithms.

Ranges have a traversal category: random access (indexed reads and writes
plus a length) or forward (repeatable iteration plus an ordered write-back).
A type can declare its category with a ``range_category`` class attribute,
the way a container advertises an iterator tag; otherwise the category is
inferred structurally.  ``sort`` picks the random-access path whenever it
applies, because that constraint set strictly contains the forward one, and
reports which path ran.  Both paths sort a copy and write it back in one
pass; the random-access one reads and writes a ``Span``'s backing store
directly, since the span's bounds were proved when it was built, and
``LinkedList(span)`` copies the window out of that store.  How a store is
read and written back is its row of ``span._STORES``; ``Buffer`` adds its
row here, so it is sorted, and viewed by a ``Span``, through its list.
Ranges satisfying neither category, element types the predicate cannot
order, and a read-only ``memoryview`` store are rejected with
``ConstraintError`` before anything is touched.

Sorting mutates the caller's range; don't touch it concurrently during a
sort.  The functions themselves keep no shared state.
"""

from __future__ import annotations

import functools
import operator
from collections import deque
from enum import Enum
from typing import Callable, NamedTuple, Optional

from .narrowing import ConstraintError
from .span import _STORES, Span, is_spanable, register_spanable

__all__ = [
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


# Iterable but not sortable ranges: mappings and sets have no element order
# to rewrite, the rest are immutable.
_NOT_RANGES = (dict, set, frozenset, str, bytes, tuple, range)
_READ_ONLY = "memoryview store is read-only"  # random access, but no sort writes it


# Contiguous storage and random access are one registry: a registered type
# can back a Span and is sorted through the random-access path.
register_random_access = register_spanable


def category_of(r) -> Optional[RangeCategory]:
    """Traversal category of ``r``, or None when it is not a usable range.

    A declared ``range_category`` class attribute wins; after that, known
    and registered random-access types; after that, structure (indexed
    read/write plus a length means random access, repeatable iteration plus
    a write-back path means forward).
    """
    cls = type(r)
    if cls is Span or cls in _STORES:  # subclasses take the probes below
        return RangeCategory.RANDOM_ACCESS
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


def _read_window(store, lo: int, n: int) -> list:
    """``store[lo:lo + n]`` as a new list, in one slice if the store has a row."""
    if type(store) not in _STORES:
        return list(map(store.__getitem__, range(lo, lo + n)))
    buf = store[lo:lo + n]
    if type(buf) is not list:  # a slice of an array, bytearray or memoryview
        buf = list(buf)
    # Short only under a Span.unchecked, or a store that shrank since.
    if len(buf) != n:
        raise IndexError(
            f"{type(store).__name__} of length {len(store)} is too short "
            f"for {n} elements at offset {lo}"
        )
    return buf


def _sort_window(r, pred: Callable) -> int:
    """Sort a random-access range through its backing store; returns its length.

    A ``Span`` is read and written between its offset and its length, with
    no per-element check: construction proved those bounds.  Any other range
    is sorted whole, through the list its row's view column names, if any.
    The row says how the sorted window is packed for one slice assignment;
    without a packing, or a row, it is written back element by element.
    """
    if isinstance(r, Span):
        store, lo, n = r._storage, r._offset, r._length
        pack = _STORES.get(type(store), (None, None))[1]
    else:
        view, pack = _STORES.get(type(r), (None, None))
        store = r if view is None else view(r)
        lo, n = 0, len(store)
    if type(store) is memoryview and store.readonly:
        raise ConstraintError(_READ_ONLY)
    buf = _read_window(store, lo, n)
    _host_sort(buf, pred)
    if pack is list:
        store[lo:lo + n] = buf
    elif pack is not None:
        store[lo:lo + n] = pack(store.typecode, buf)
    else:
        for i, v in enumerate(buf, lo):
            store[i] = v
    return n


def _sort_copy(r, pred: Callable) -> int:
    """Sort any forward range by copying out and writing back; returns its length."""
    buf = list(r)
    _host_sort(buf, pred)
    write_back = getattr(r, "write_back", None)
    if callable(write_back):
        write_back(buf)
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
    if category_of(r) is not RangeCategory.RANDOM_ACCESS:
        raise ConstraintError("range does not provide random access")
    _sort_window(r, pred)


def sort_forward(r, pred: Callable = less) -> None:
    """Sort any forward range by copying out, sorting, and writing back.

    Works on anything at least forward (random-access ranges included) and
    leaves the range sorted under ``pred`` in traversal order.
    """
    if category_of(r) is None:
        raise ConstraintError("range is not forward-iterable with write-back")
    store = r._storage if isinstance(r, Span) else r
    if type(store) is memoryview and store.readonly:
        raise ConstraintError(_READ_ONLY)
    _sort_copy(r, pred)


def sort(r, pred: Callable = less) -> SortDispatchReport:
    """Sort ``r`` in place, picking the strictest applicable path.

    Random access wins whenever it holds (its requirements strictly include
    the forward ones); otherwise the forward copy-out path runs.  A range
    satisfying neither is rejected.  The report records the decision.
    """
    category = category_of(r)
    if category is RangeCategory.RANDOM_ACCESS:
        return SortDispatchReport(SortPath.RANDOM_ACCESS, _sort_window(r, pred))
    if category is RangeCategory.FORWARD:
        return SortDispatchReport(SortPath.FORWARD_COPY, _sort_copy(r, pred))
    raise ConstraintError(
        f"{type(r).__name__} is neither a random-access nor a forward range"
    )


def is_power_of_two(n: int) -> bool:
    """True iff ``n`` is a positive power of two."""
    return 0 < n and (n & (n - 1)) == 0


class Buffer:
    """Fixed-size element storage whose size constraint is checked up front.

    The size must be a power of two and at least 1024; violations raise
    ``ConstraintError`` when the buffer is created, before any storage is
    allocated, so no runtime error handler is ever needed.  Elements start
    as ``element_type()``.
    """

    MIN_SIZE = 1024

    range_category = RangeCategory.RANDOM_ACCESS

    __slots__ = ("element_type", "_items")

    def __init__(self, element_type: Callable, size: int):
        if not isinstance(size, int) or isinstance(size, bool):
            raise ConstraintError("buffer size must be an integer constant")
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


register_spanable(Buffer)
# A Span over an exact Buffer views its list: one frame per index, and the
# list's own iteration and slices (a Span.unchecked slices through it).
_STORES[Buffer] = (operator.attrgetter("_items"), list)


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
        values = list(values)
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
