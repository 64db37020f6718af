import ctypes
import operator
import random
import struct
import sys
from array import array
from collections import Counter
from enum import IntEnum
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from checked import (
    F32,
    F64,
    U8,
    Buffer,
    ConstraintError,
    LinkedList,
    RangeCategory,
    SortPath,
    Span,
    category_of,
    draw_all,
    greater,
    is_power_of_two,
    is_spanable,
    less,
    register_random_access,
    register_spanable,
    sort,
    sort_forward,
    sort_random_access,
)
from checked import rangealg


class TestCategories:
    def test_builtin_ranges(self):
        assert category_of([1]) is RangeCategory.RANDOM_ACCESS
        assert category_of(array("i", [1])) is RangeCategory.RANDOM_ACCESS
        assert category_of(bytearray(b"a")) is RangeCategory.RANDOM_ACCESS
        assert category_of(memoryview(bytearray(b"a"))) is RangeCategory.RANDOM_ACCESS
        assert category_of(Span([1])) is RangeCategory.RANDOM_ACCESS
        assert category_of(Buffer(int, 1024)) is RangeCategory.RANDOM_ACCESS
        assert category_of(LinkedList([1])) is RangeCategory.FORWARD

    def test_non_ranges(self):
        for bad in ((1, 2), "ab", {1: 2}, {1, 2}, range(3), (x for x in "ab"), 7):
            assert category_of(bad) is None

    def test_structural_random_access(self):
        class Vec:
            def __init__(self, items):
                self._items = list(items)

            def __len__(self):
                return len(self._items)

            def __getitem__(self, i):
                return self._items[i]

            def __setitem__(self, i, v):
                self._items[i] = v

            def __iter__(self):
                return iter(self._items)

        v = Vec([3, 1, 2])
        assert category_of(v) is RangeCategory.RANDOM_ACCESS
        report = sort(v)
        assert report.chosen_path is SortPath.RANDOM_ACCESS
        assert list(v) == [1, 2, 3]

    def test_declared_category_wins(self):
        class Tagged(list):
            range_category = RangeCategory.FORWARD

        t = Tagged([2, 1])
        assert category_of(t) is RangeCategory.FORWARD
        assert sort(t).chosen_path is SortPath.FORWARD_COPY
        assert list(t) == [1, 2]


class TestSortExamples:
    def test_vector_ascending(self):
        vec = [1.0, -2.0, 2.0, 3.0]
        sort_random_access(vec)
        assert vec == [-2.0, 1.0, 2.0, 3.0]

    def test_vector_descending(self):
        vec = [1.0, -2.0, 2.0, 3.0]
        sort_random_access(vec, greater)
        assert vec == [3.0, 2.0, 1.0, -2.0]

    def test_list_descending(self):
        lst = LinkedList(["d", "q", "a"])
        sort_forward(lst, greater)
        assert list(lst) == ["q", "d", "a"]

    def test_span_of_strings(self):
        names = ["delta", "alpha", "charlie"]
        sort_random_access(Span(names))
        assert names == ["alpha", "charlie", "delta"]

    def test_empty_and_single(self):
        empty: list = []
        sort_random_access(empty)
        assert empty == []
        single = LinkedList([5])
        sort_forward(single)
        assert list(single) == [5]

    def test_custom_predicate(self):
        data = [-5, 2, -1, 4]
        sort_random_access(data, lambda a, b: abs(a) < abs(b))
        assert data == [-1, 2, 4, -5]

    def test_forward_accepts_random_access_ranges(self):
        data = [3, 1, 2]
        sort_forward(data)
        assert data == [1, 2, 3]


class TestDispatch:
    def test_contiguous_paths(self):
        assert sort([3, 1]).chosen_path is SortPath.RANDOM_ACCESS
        assert sort(Span([3, 1])).chosen_path is SortPath.RANDOM_ACCESS
        assert sort(array("i", [3, 1])).chosen_path is SortPath.RANDOM_ACCESS

    def test_forward_path(self):
        report = sort(LinkedList([3, 1, 2]))
        assert report.chosen_path is SortPath.FORWARD_COPY
        assert report.element_count == 3

    def test_element_count(self):
        assert sort([5, 4, 3]).element_count == 3
        assert sort([]).element_count == 0


class TestRejections:
    def test_random_access_sort_refuses_forward_range(self):
        with pytest.raises(ConstraintError):
            sort_random_access(LinkedList([2, 1]))

    def test_unorderable_elements(self):
        data = [3j, 1j]
        with pytest.raises(ConstraintError) as info:
            sort(data)
        assert "complex" in str(info.value)
        assert data == [3j, 1j]  # probed, never mutated

    @pytest.mark.parametrize(
        "make,call",
        [
            (lambda: [1, "a", 2], sort),
            (lambda: Span([3, "x", 1]), sort),
            (lambda: LinkedList([1, "a"]), sort_forward),
        ],
        ids=["list", "Span", "LinkedList"],
    )
    def test_mixed_unorderable_elements(self, make, call):
        # The self-probe passes on the first element; the mismatch only
        # shows inside the sort, which runs on a copy.
        r = make()
        before = list(r)
        with pytest.raises(ConstraintError):
            call(r)
        assert list(r) == before

    def test_unorderable_under_custom_predicate(self):
        with pytest.raises(ConstraintError):
            sort([1, 2], lambda a, b: a < str(b))

    def test_neither_category(self):
        for bad in ((3, 1), "ba", {1, 2}, (x for x in [2, 1])):
            with pytest.raises(ConstraintError):
                sort(bad)

    def test_sort_forward_needs_a_range(self):
        with pytest.raises(ConstraintError):
            sort_forward((3, 1))


class RawChunk:
    """Registered store whose item access refuses slices."""

    def __init__(self, items):
        self._data = list(items)

    def __len__(self):
        return len(self._data)

    def __getitem__(self, i):
        return self._data[operator.index(i)]

    def __setitem__(self, i, v):
        self._data[operator.index(i)] = v


register_random_access(RawChunk)


def _buffer(items, size=1024):
    buf = Buffer(int, size)
    for i, v in enumerate(items):
        buf[i] = v
    return buf


# name -> (store over the given items, the items of that store as a list)
STORES = {
    "list": (list, list),
    "array": (lambda d: array("i", d), list),
    "bytearray": (bytearray, list),
    "memoryview": (lambda d: memoryview(array("i", d)), lambda m: m.tolist()),
    "Buffer": (_buffer, list),
    "RawChunk": (RawChunk, lambda c: c._data),
}


class TestWindowSort:
    """A Span window sort sorts exactly the window, over every store."""

    DATA = [(i * 37 + 11) % 97 for i in range(40)]

    @pytest.mark.parametrize("pred", [less, greater, lambda a, b: a > b],
                             ids=["less", "greater", "custom"])
    @pytest.mark.parametrize("kind", sorted(STORES) + ["nested"])
    def test_sorts_the_window_only(self, kind, pred):
        lo, hi = 7, 29
        if kind == "nested":
            base = list(self.DATA)
            window = Span(Span(base, 3, 35), lo - 3, hi - 3)
            contents = lambda: base  # noqa: E731
        else:
            make, contents_of = STORES[kind]
            store = make(self.DATA)
            window = Span(store, lo, hi)
            contents = lambda: contents_of(store)  # noqa: E731
        report = sort(window, pred)
        assert report.chosen_path is SortPath.RANDOM_ACCESS
        assert report.element_count == hi - lo
        descending = pred is not less
        expected = (self.DATA[:lo] + sorted(self.DATA[lo:hi], reverse=descending)
                    + self.DATA[hi:])
        got = contents()
        assert got[:len(expected)] == expected
        assert not any(got[len(expected):])  # a Buffer's zero-filled tail

    def test_array_subclass_is_written_element_by_element(self):
        class Logged(array):
            def __setitem__(self, index, value):
                writes.append(index)
                super().__setitem__(index, value)

        writes = []
        store = Logged("i", [9, 5, 7, 1])
        sort(Span(store, 1, 4))
        assert list(store) == [9, 1, 5, 7] and writes == [1, 2, 3]

    def test_registered_store_is_spanable_and_random_access(self):
        chunk = RawChunk([3, 1, 2])
        assert is_spanable(chunk)
        assert category_of(chunk) is RangeCategory.RANDOM_ACCESS
        sort(chunk)
        assert chunk._data == [1, 2, 3]

    @pytest.mark.parametrize("kind", sorted(STORES))
    def test_unchecked_span_past_the_store(self, kind):
        make, contents_of = STORES[kind]
        store = make([5, 3, 1])
        before = contents_of(store)
        for read in (sort, LinkedList):
            with pytest.raises(IndexError) as info:
                read(Span.unchecked(store, len(store) + 2))
            assert type(info.value) is IndexError
            assert contents_of(store) == before


class TestLinkedListOfASpan:
    """``LinkedList(span)`` reads the window in one slice where the store
    takes slices: the same values as iterating the span, copied."""

    DATA = [(i * 37 + 11) % 97 for i in range(40)]

    @pytest.mark.parametrize("kind", sorted(STORES) + ["nested"])
    def test_equals_the_iterated_window(self, kind):
        if kind == "nested":
            base = list(self.DATA)
            window = Span(Span(base, 3, 35), 4, 26)
        else:
            base = STORES[kind][0](self.DATA)
            window = Span(base, 7, 29)
        linked = LinkedList(window)
        assert list(linked) == list(LinkedList(list(window))) == self.DATA[7:29]
        window[0] = 0  # a copy: a later write to the store is not seen
        assert list(linked)[0] == self.DATA[7]


class _Vec:
    """Structural random-access range: indexed reads and writes, a length."""

    def __init__(self, items):
        self._items = list(items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, index):
        return self._items[index]

    def __setitem__(self, index, value):
        self._items[index] = value

    def __iter__(self):
        return iter(self._items)


class _WrittenBack:
    """Structural forward range: iteration and a ``write_back``."""

    def __init__(self, items):
        self._items = list(items)

    def __iter__(self):
        return iter(self._items)

    def write_back(self, values):
        self._items = list(values)


class _SetOnly:
    """Structural forward range: iteration and item writes, no item reads."""

    def __init__(self, items):
        self._items = list(items)

    def __iter__(self):
        return iter(self._items)

    def __setitem__(self, index, value):
        self._items[index] = value


class _IndexLog:
    """Records the type of every index its item access receives."""

    def __init__(self, *args):
        self.index_types = []
        super().__init__(*args)

    def __getitem__(self, index):
        self.index_types.append(type(index))
        return super().__getitem__(index)

    def __setitem__(self, index, value):
        self.index_types.append(type(index))
        super().__setitem__(index, value)


class _LoggedList(_IndexLog, list):
    pass


class _LoggedBuffer(_IndexLog, Buffer):
    pass


class _Registered(_IndexLog, _Vec):
    """Registered as spanable by the test that uses it."""


class _NoWrites:
    """A store with item reads and a length but no ``__setitem__``; it counts
    its reads.  Registered as spanable by the test that uses it."""

    def __init__(self, items):
        self._items = list(items)
        self.reads = 0

    def __len__(self):
        return len(self._items)

    def __getitem__(self, index):
        self.reads += 1
        return self._items[index]


def _logged_buffer(items):
    store = _LoggedBuffer(int, 1024)
    for i, v in enumerate(items):
        store[i] = v
    store.index_types.clear()
    return store


# name -> (the store over the given 1024 items, whether it logs its indices)
STORE_TABLE = {
    "list": (list, False),
    "bytearray": (bytearray, False),
    **{f"array {code!r}": (lambda d, code=code: array(code, d), False) for code in "bBhHiIlLqQfd"},
    "memoryview": (lambda d: memoryview(array("i", d)), False),
    "memoryview '@i'": (lambda d: memoryview(array("i", d)).cast("B").cast("@i"), False),
    "Buffer": (_buffer, False),
    "Buffer subclass": (_logged_buffer, True),
    "list subclass": (_LoggedList, True),
    "registered": (_Registered, True),
}
# name -> (the range over the given items, category_of, sort's path or None
# when sort refuses it)
NON_STORE_TABLE = {
    "LinkedList": (LinkedList, RangeCategory.FORWARD, SortPath.FORWARD_COPY),
    "structural": (_Vec, RangeCategory.RANDOM_ACCESS, SortPath.RANDOM_ACCESS),
    "structural write_back": (_WrittenBack, RangeCategory.FORWARD, SortPath.FORWARD_COPY),
    "structural __setitem__": (_SetOnly, RangeCategory.FORWARD, SortPath.FORWARD_COPY),
    "dict": (dict.fromkeys, None, None),
    "str": (lambda d: "".join(map(chr, d)), None, None),
    "tuple": (tuple, None, None),
    "generator": (lambda d: (v for v in d), None, None),
}


class TestStoreTable:
    """What each store and non-store gives every entry point that reads the
    store registry: its category, whether it backs a Span, and how it sorts.
    A subclass or a registered store is read and written element by element,
    so its item access only ever sees int indices."""

    DATA = [(i * 37 + 11) % 97 for i in range(1024)]

    @pytest.mark.parametrize("name", list(STORE_TABLE))
    def test_store(self, name, registry):
        register_spanable(_Registered)
        make, logged = STORE_TABLE[name]
        data, n = self.DATA, len(self.DATA)
        whole, window, linked = make(data), make(data), make(data)
        assert category_of(whole) is RangeCategory.RANDOM_ACCESS
        assert is_spanable(whole)
        assert len(Span(whole)) == n
        assert sort(whole) == (SortPath.RANDOM_ACCESS, n)
        assert list(whole) == sorted(data)
        assert sort(Span(window, 1, n - 1)) == (SortPath.RANDOM_ACCESS, n - 2)
        assert list(window) == [data[0], *sorted(data[1:-1]), data[-1]]
        assert list(LinkedList(Span(linked))) == data
        for store in (whole, window, linked):
            if logged:
                assert store.index_types and set(store.index_types) == {int}
            else:
                assert not hasattr(store, "index_types")

    @pytest.mark.parametrize("name", list(NON_STORE_TABLE))
    def test_non_store(self, name):
        make, category, path = NON_STORE_TABLE[name]
        r = make(self.DATA)
        assert category_of(r) is category
        assert not is_spanable(r)
        with pytest.raises(ConstraintError) as info:
            Span(r)
        assert type(info.value) is ConstraintError
        if path is None:
            with pytest.raises(ConstraintError) as info:
                sort(r)
            assert type(info.value) is ConstraintError
            assert list(r) == list(make(self.DATA))  # untouched
        else:
            assert sort(r) == (path, len(self.DATA))
            assert list(r) == sorted(self.DATA)

    def test_store_without_setitem(self, registry):
        """A registered store with no ``__setitem__`` backs a Span and is read
        like any store, but every sort and every Span write refuses it before
        reading it, and it is left as it was."""
        register_spanable(_NoWrites)
        data, n = self.DATA, len(self.DATA)
        store = _NoWrites(data)
        assert category_of(store) is RangeCategory.RANDOM_ACCESS and is_spanable(store)
        assert list(Span(store, 1, 4)) == data[1:4]
        store.reads = 0
        for r in (store, Span(store), Span(store, 1, n - 1), Span.unchecked(store, n)):
            for sorter in (sort, sort_random_access, sort_forward):
                with pytest.raises(ConstraintError, match="^_NoWrites does not provide __setitem__$") as info:
                    sorter(r)
                assert type(info.value) is ConstraintError
        with pytest.raises(ConstraintError, match="^_NoWrites does not provide __setitem__$") as info:
            Span(store, 1, 4)[0] = 7
        assert type(info.value) is ConstraintError
        assert store.reads == 0 and store._items == data

    # memoryviews that are not 1-D of one native single code
    ODD_VIEWS = {
        "2-D": lambda: memoryview(bytearray(range(8))).cast("B", (2, 4)),
        "0-D": lambda: memoryview(ctypes.c_int32(5)),
        "big-endian": lambda: memoryview((ctypes.c_int32.__ctype_be__ * 3)(3, 1, 2)),
        "explicit order": lambda: memoryview((ctypes.c_uint8 * 3)(3, 1, 2)),
    }

    @pytest.mark.parametrize("name", list(ODD_VIEWS))
    def test_memoryview_of_another_shape_or_format(self, name):
        """``Span()``, ``Span.unchecked`` and the sorts refuse such a view with
        ``ConstraintError`` (the view's own errors were ``NotImplementedError``
        and ``TypeError``), and it is left as it was."""
        view = self.ODD_VIEWS[name]()
        before = view.tobytes()
        assert category_of(view) is RangeCategory.RANDOM_ACCESS and is_spanable(view)
        for refused in (Span, lambda v: Span(v, 1), lambda v: Span.unchecked(v, 1),
                        sort, sort_random_access, sort_forward):
            with pytest.raises(ConstraintError, match=f"^memoryview of format '{view.format}' and ndim {view.ndim} "
                                                      "is not a contiguous range$"):
                refused(view)
        assert view.tobytes() == before

    def test_numpy_views(self):
        """A numpy array's view reads a native code when its byte order is
        native, and is refused otherwise."""
        numpy = pytest.importorskip("numpy")
        native = numpy.array([3, 1, 2], "=i4")
        swapped = numpy.array([3, 1, 2], ">i4" if numpy.little_endian else "<i4")
        assert sort(memoryview(native)) == (SortPath.RANDOM_ACCESS, 3) and native.tolist() == [1, 2, 3]
        with pytest.raises(ConstraintError, match="is not a contiguous range"):
            sort(memoryview(swapped))
        assert swapped.tolist() == [3, 1, 2]

    @pytest.mark.parametrize("make", [lambda d: memoryview(bytes(d)),
                                      lambda d: memoryview(array("i", d)).toreadonly()],
                             ids=["bytes", "array"])
    def test_read_only_memoryview(self, make):
        """A read-only memoryview backs a Span and is read like any store,
        but every sort refuses it before reading it."""
        data, n = self.DATA, len(self.DATA)
        store = make(data)
        assert category_of(store) is RangeCategory.RANDOM_ACCESS
        assert is_spanable(store)
        assert list(Span(store, 1, n - 1)) == data[1:-1]
        assert list(LinkedList(Span(store))) == data
        for r in (store, Span(store), Span(store, 1, n - 1), Span.unchecked(store, n)):
            for sorter in (sort, sort_random_access, sort_forward):
                with pytest.raises(ConstraintError, match="read-only") as info:
                    sorter(r)
                assert type(info.value) is ConstraintError
        assert list(store) == data


class _One(IntEnum):
    ONE = 1


class _Int(int):
    pass


class _EqualityMeta(type):
    def __eq__(cls, other):  # with no __hash__, so its classes are unhashable
        return cls is other


class _UnhashableClassInt(int, metaclass=_EqualityMeta):
    pass


class _IntEqualMeta(type):
    """Its classes hash as ``int`` and equal it, so a set of classes merges them into ``int``."""

    def __hash__(cls):
        return hash(int)

    def __eq__(cls, other):
        return other is int or cls is other


class _IntEqualClassInt(int, metaclass=_IntEqualMeta):
    pass


INT_CODES = "bBhHiIlLqQnNP"  # the integer item codes a memoryview reads; all but the last three are array's


def _limits(code):
    """The least and greatest int an item of ``code`` holds, at ``struct``'s native size."""
    bits = 8 * struct.calcsize(code)
    return (-(1 << bits - 1), (1 << bits - 1) - 1) if code.islower() else (0, (1 << bits) - 1)


def _view(code, data):
    """A writable 1-D memoryview of format ``code`` over ``data``."""
    return memoryview(bytearray(struct.pack(f"{len(data)}{code}", *data))).cast(code)


class TestElementTable:
    """Each store row's element type, checked against ``struct`` and ``array``."""

    ELEMENTS = rangealg._ELEMENTS

    def test_keys_are_the_formats_a_span_takes(self):
        assert set(self.ELEMENTS) == set(INT_CODES + "fdc?")
        for code in self.ELEMENTS:
            assert memoryview(bytes(8)).cast(code).format == code
            assert len(Span(memoryview(bytearray(8)).cast(code))) == 8 // struct.calcsize(code)

    @pytest.mark.parametrize("code", INT_CODES + "fd")
    def test_byte_size(self, code):
        element = self.ELEMENTS[code]
        assert element.byte_size == struct.calcsize(code)
        if code in "bBhHiIlLqQfd":
            assert element.byte_size == array(code).itemsize

    @pytest.mark.parametrize("code", INT_CODES)
    def test_integer_limits(self, code):
        """``min`` and ``max`` are what the code holds: they round-trip, and one
        past either does not (``array`` raises ``OverflowError``; for the codes
        ``array`` lacks, ``struct`` raises or, for a negative ``'P'``, wraps)."""
        element = self.ELEMENTS[code]
        if code in "nNP":
            def holds(value):
                try:
                    return struct.unpack(code, struct.pack(code, value)) == (value,)
                except struct.error:
                    return False

            assert holds(element.min) and holds(element.max)
            assert not holds(element.min - 1) and not holds(element.max + 1)
        else:
            assert array(code, [element.min, element.max]).tolist() == [element.min, element.max]
            for past in (element.min - 1, element.max + 1):
                with pytest.raises(OverflowError):
                    array(code, [past])

    def test_floats_bytes_and_bools(self):
        assert self.ELEMENTS["f"] is F32 and self.ELEMENTS["d"] is F64
        assert self.ELEMENTS["c"] is None and self.ELEMENTS["?"] is None

    def test_rows(self):
        element = {cls: row[2] for cls, row in rangealg._STORES.items()}
        assert element[bytearray](bytearray(3)) is U8
        assert element[list]([1, 2]) is None and element[Buffer](Buffer(int, 1024)) is None
        for code in "bBhHiIlLqQfd":
            assert element[array](array(code)) is self.ELEMENTS[code]
            assert element[memoryview](memoryview(array(code))) is element[array](array(code))
        assert element[memoryview](memoryview(array("i")).cast("B").cast("@i")) is self.ELEMENTS["i"]
        assert element[memoryview](memoryview(bytearray(8)).cast("B", (2, 4))) is None
        assert element[memoryview](memoryview(b"ab").cast("c")) is None


class TestCountingSort:
    """A window of ``_COUNT_MIN`` or more exact ints in range(256) under
    ``less`` or ``greater`` is sorted by counting; it equals ``sorted()`` on a
    copy."""

    N = rangealg._COUNT_MIN
    U8_STORES = {"bytearray": bytearray, "array-B": lambda d: array("B", d)}

    @pytest.fixture
    def compared(self, monkeypatch):
        """The window lengths the comparison sort sorted during the test."""
        lengths = []

        def host_sort(buf, pred):
            lengths.append(len(buf))
            real_host_sort(buf, pred)

        real_host_sort = rangealg._host_sort
        monkeypatch.setattr(rangealg, "_host_sort", host_sort)
        return lengths

    @pytest.fixture
    def scans(self, monkeypatch):
        """The windows the counting gate proved by a ``marshal`` dump."""
        lengths = []

        def dumps(items, version):
            lengths.append(len(items))
            return real_dumps(items, version)

        real_dumps = rangealg.marshal.dumps
        monkeypatch.setattr(rangealg, "marshal", SimpleNamespace(dumps=dumps))
        return lengths

    @pytest.mark.parametrize("pred", [less, greater], ids=["less", "greater"])
    @pytest.mark.parametrize("kind", sorted(U8_STORES))
    @pytest.mark.parametrize("n", [N - 1, N, N + 1, 4096])
    def test_equals_sorted_on_a_copy(self, n, kind, pred, compared):
        rng = random.Random(n)
        data = [rng.randrange(256) for _ in range(n + 37)]
        lo, hi = 17, 17 + n
        store = self.U8_STORES[kind](data)
        assert sort(Span(store, lo, hi), pred) == (SortPath.RANDOM_ACCESS, n)
        assert list(store) == data[:lo] + sorted(data[lo:hi], reverse=pred is greater) + data[hi:]
        assert compared == ([n] if n < self.N else [])

    @pytest.mark.parametrize("kind", sorted(U8_STORES))
    def test_nested_span_and_whole_store(self, kind, compared):
        rng = random.Random(5)
        data = [rng.randrange(256) for _ in range(self.N + 64)]
        store = self.U8_STORES[kind](data)
        window = Span(Span(store, 8, self.N + 56), 3, self.N + 3)  # the base store's [11, N + 11)
        assert sort(window, greater) == (SortPath.RANDOM_ACCESS, self.N)
        lo, hi = 11, self.N + 11
        assert list(store) == data[:lo] + sorted(data[lo:hi], reverse=True) + data[hi:]
        assert sort(store) == (SortPath.RANDOM_ACCESS, len(data))
        assert list(store) == sorted(data)
        assert sort_random_access(store, greater) is None and list(store) == sorted(data, reverse=True)
        assert compared == []

    class _Bytes(bytearray):
        pass

    # Exact ints in range(256) in any store, proved by the store's type and a
    # value check, or by the exact-type scan and a value check.
    @pytest.mark.parametrize("make, pred", [
        (lambda d: array("i", d), greater),
        (_Bytes, less),
        (lambda d: memoryview(bytearray(d)), less),
        (list, greater),
        (lambda d: _buffer(d, 2048), less),
        (lambda d: Span([0, *d, 0], 1, len(d) + 1), greater),
    ], ids=["array-i", "bytearray-subclass", "memoryview", "list", "Buffer", "nested"])
    def test_other_byte_windows_are_counted(self, make, pred, compared):
        rng = random.Random(9)
        data = [rng.randrange(256) for _ in range(self.N + 10)]
        window, forward = Span(make(data), 5, self.N + 5), Span(make(data), 5, self.N + 5)
        expected = sorted(window, reverse=pred is greater)
        assert sort(window, pred) == (SortPath.RANDOM_ACCESS, self.N)
        linked = LinkedList(forward)
        assert sort(linked, pred) == (SortPath.FORWARD_COPY, self.N)
        assert list(window) == list(linked) == expected and compared == []

    @pytest.mark.parametrize("make, pred", [
        (bytearray, lambda a, b: a < b),
        (lambda d: array("b", [v - 128 for v in d]), less),
        (lambda d: array("i", d[:-6] + [256] + d[-5:]), less),
        (lambda d: d[:-6] + [-1] + d[-5:], greater),
        (lambda d: d[:500] + [True] + d[501:], less),
        (lambda d: d[:500] + [_One.ONE] + d[501:], greater),
        (lambda d: d[:500] + [_Int(1)] + d[501:], less),
        (lambda d: d[:500] + [1.0] + d[501:], greater),
        (lambda d: d[:500] + [_UnhashableClassInt(1)] + d[501:], less),
        (lambda d: d[:500] + [_IntEqualClassInt(1)] + d[501:], greater),
        (lambda d: d[:500] + [True, 0.0] + d[502:], less),  # ``bytes`` stops at the float
    ], ids=["custom-pred", "array-b", "array-i-256", "list-negative", "bool", "IntEnum", "int-subclass",
            "float", "unhashable-class", "int-equal-class", "bool-then-float"])
    def test_other_windows_are_compared(self, make, pred, compared):
        rng = random.Random(9)
        data = [rng.randrange(256) for _ in range(self.N + 10)]
        store = make(data)
        expected = sorted(store[5:self.N + 5], reverse=pred is greater)
        assert sort(Span(store, 5, self.N + 5), pred) == (SortPath.RANDOM_ACCESS, self.N)
        assert list(store[5:self.N + 5]) == expected and compared == [self.N]
        assert list(map(type, store[5:self.N + 5])) == list(map(type, expected))

    def test_gate_runs_no_method_of_an_element_or_its_class(self, compared):
        """An int subclass and its metaclass record each ``__eq__``, ``__hash__``
        and ``__index__`` call: the gate makes none, and the window, in place or
        forward, is compared with its types kept."""
        calls = []

        class Meta(type):
            def __eq__(cls, other):
                calls.append("type.__eq__")
                return other is int or cls is other

            def __hash__(cls):
                calls.append("type.__hash__")
                return hash(int)

        class Recording(int, metaclass=Meta):
            def __eq__(self, other):
                calls.append("__eq__")
                return int(self) == other

            def __hash__(self):
                calls.append("__hash__")
                return int.__hash__(self)

            def __index__(self):
                calls.append("__index__")
                return int(self)

        data = list(range(256)) * 4 + [7] * 10
        data[500] = Recording(1)
        expected = sorted(data[5:self.N + 5])
        for r in (Span(list(data), 5, self.N + 5), LinkedList(data[5:self.N + 5])):
            sort(r, less)
            assert list(r) == expected and list(map(type, r)) == list(map(type, expected))
        assert calls == [] and compared == [self.N, self.N]

    _CYCLE = [1]
    _CYCLE.append(_CYCLE)

    @pytest.mark.parametrize("pred", [less, greater], ids=["less", "greater"])
    @pytest.mark.parametrize("odd", [_CYCLE, b"i\0\0\0"], ids=["self-referential-list", "bytes-i000"])
    def test_windows_that_marshal_oddly_are_refused(self, odd, pred, compared, scans):
        """A self-referential list would make the dump raise, and a ``bytes``
        element that reads as an int record would shift every record after it;
        ``bytes`` of the window stops at either, so neither is dumped or
        counted.  An int cannot be compared with either, so both sorts refuse
        the window with ``ConstraintError`` and leave it as it was."""
        data = list(range(256)) * 4 + [7] * 10
        data[500] = odd
        for r in (Span(list(data), 5, self.N + 5), LinkedList(data[5:self.N + 5])):
            with pytest.raises(ConstraintError, match="not ordered by the sort predicate"):
                sort(r, pred)
            assert list(r) == data[5:self.N + 5]
        assert compared == [self.N, self.N] and scans == []

    def test_nothing_nested_or_large_is_dumped(self, compared, scans):
        """``bytes`` of the window stops at the first element not an int in
        range(256), before the dump: a window ending in 2**16 references to one
        ``[0]`` through a chain of shared pairs is refused with
        ``ConstraintError`` and left as it was, and a window of one large int
        repeated is compared; neither is dumped, on either sort path."""
        shared = [0]
        for _ in range(16):
            shared = [shared, shared]
        nested = [0] * (self.N - 1) + [shared]
        for r in (Span(list(nested)), LinkedList(nested)):
            with pytest.raises(ConstraintError, match="not ordered by the sort predicate"):
                sort(r)
            assert list(r) == nested
        large = [0] + [10 ** 400] * self.N
        for r in (Span(list(large)), LinkedList(large)):
            sort(r, greater)
            assert list(r) == large[1:] + [0]
        assert scans == [] and compared == [self.N] * 2 + [self.N + 1] * 2

    def test_what_an_index_raises_makes_the_window_compared(self, compared):
        """``bytes`` of the window runs a non-int element's ``__index__``: what
        it raises, whatever its type, makes the window compared, in place and
        forward, with its types kept."""
        class Indexed:  # ordered among ints by its value
            def __init__(self, value):
                self.value = value

            def __index__(self):
                raise RuntimeError("no index")

            def __lt__(self, other):
                return self.value < other

            def __gt__(self, other):
                return self.value > other

        data = list(range(256)) * 4 + [7] * 10
        data[500] = odd = Indexed(100)
        expected = sorted(data[5:self.N + 5], reverse=True)
        for r in (Span(list(data), 5, self.N + 5), LinkedList(data[5:self.N + 5])):
            sort(r, greater)
            assert list(r) == expected and list(r).count(odd) == 1
        assert compared == [self.N, self.N]

    def test_dump_runs_an_int_subclass_buffer_from_3_12(self, compared):
        """From Python 3.12 ``marshal`` writes an object defining ``__buffer__``
        (PEP 688) as that buffer's bytes, so the dump runs an int subclass's
        ``__buffer__`` once; earlier, it refuses the subclass without running
        it.  Either way the subclass's slot does not start with ``i``, and the
        window is compared with its types kept."""
        calls = []

        class Buffered(int):
            def __buffer__(self, flags):
                calls.append(flags)
                return memoryview(b"")

        data = list(range(256)) * 4 + [7] * 10
        data[500] = Buffered(1)
        expected = sorted(data[5:self.N + 5])
        sort(r := Span(list(data), 5, self.N + 5))
        assert list(r) == expected and list(map(type, r)) == list(map(type, expected))
        assert len(calls) == (sys.version_info >= (3, 12)) and compared == [self.N]

    @pytest.mark.parametrize("code", INT_CODES + "fdc?")
    def test_compared_memoryview_windows(self, code, compared):
        """A compared window of a 1-D memoryview of each format (under
        ``_COUNT_MIN``, under a custom predicate, or holding a value outside
        range(256) or no exact int) is packed by ``struct`` into one slice: it
        equals ``sorted()`` of a copy, and the store keeps its format and length."""
        rng = random.Random(code)
        least, greatest = _limits(code) if code in INT_CODES else (-300, 600)
        draw = {"c": lambda: bytes([rng.randrange(256)]), "?": lambda: rng.random() < 0.5,
                "f": lambda: rng.randint(-300, 600) / 4, "d": lambda: rng.randint(-300, 600) / 4}.get(
            code, lambda: rng.randint(max(least, -300), min(greatest, 600)))
        ways = [(self.N - 1, less), (self.N + 5, lambda a, b: a > b)] + [(self.N + 5, greater)] * (code != "B")
        for n, pred in ways:
            data = [draw() for _ in range(n + 3)]
            if code in INT_CODES and pred is greater:
                data[-1] = least if least < 0 else greatest  # outside range(256)
            store = _view(code, data)
            compared.clear()
            assert sort(Span(store, 3, n + 3), pred) == (SortPath.RANDOM_ACCESS, n)
            assert store.format == code and len(store) == n + 3
            assert store.tolist() == data[:3] + sorted(data[3:], reverse=pred is not less)
            assert compared == [n]

    @pytest.mark.parametrize("pred", [less, greater], ids=["less", "greater"])
    @pytest.mark.parametrize("kind, code", [("array", c) for c in "bBhHiIlLqQ"]
                             + [("memoryview", c) for c in INT_CODES])
    def test_every_integer_typecode(self, kind, code, pred, compared, scans):
        """An integer ``array`` or 1-D ``memoryview`` holds only exact ints, so
        a window of values in range(256) that its code holds is counted with no
        ``marshal`` dump and packed from raw items of the code's size: it equals
        ``sorted()`` of a copy, and the store keeps its code and length.  A
        negative value, or one of 256 and up, makes it compared."""
        rng = random.Random(code)
        least, greatest = _limits(code)
        for odd in (None, -1, 256, least, greatest):
            if odd is not None and (0 <= odd < 256 or not least <= odd <= greatest):
                continue
            data = [rng.randint(0, min(greatest, 255)) for _ in range(rng.randint(self.N + 3, 1300))]
            if odd is not None:
                data[rng.randrange(3, len(data))] = odd
            store = array(code, data) if kind == "array" else _view(code, data)
            compared.clear()
            assert sort(Span(store, 3, len(data)), pred) == (SortPath.RANDOM_ACCESS, len(data) - 3)
            assert (store.typecode if kind == "array" else store.format) == code and len(store) == len(data)
            assert store.tolist() == data[:3] + sorted(data[3:], reverse=pred is greater)
            assert compared == ([] if odd is None else [len(data) - 3])
        assert scans == []
        sort(list(range(256)) * 4, pred)  # an untyped window of the same ints is dumped
        assert scans == [1024]

    @pytest.mark.parametrize("length", [1034, 2048])
    def test_registered_store_whose_length_overstates(self, length, registry):
        """A registered store's own item access fails past its real end: the
        sorts and ``LinkedList(span)`` raise the library's ``IndexError``, as
        for a short store with a row, and write nothing."""
        class Overstated(_Vec):
            def __len__(self):
                return length

        register_spanable(Overstated)
        data = list(range(1024, 0, -1))
        store = Overstated(data)
        for make in (lambda: store, lambda: Span(store), lambda: LinkedList(Span(store))):
            with pytest.raises(IndexError, match=f"Overstated of length {length} is too short "
                                                 f"for {length} elements at offset 0") as info:
                sort(make())
            assert type(info.value) is IndexError and list(store) == data

    @pytest.mark.parametrize("kind", sorted(U8_STORES))
    def test_short_unchecked_window_is_refused_untouched(self, kind):
        store = self.U8_STORES[kind](range(200, 0, -1))
        with pytest.raises(IndexError, match="too short") as info:
            sort(Span.unchecked(store, self.N))
        assert type(info.value) is IndexError and list(store) == list(range(200, 0, -1))

    # name -> (the range to sort over a window's values, the least and
    # greatest int its store holds, or None when it holds any object)
    GATE_STORES = {
        "list": (lambda d: Span([0, *d, 0], 1, len(d) + 1), None),
        "Buffer": (lambda d: Span(_buffer(d, 2048), 0, len(d)), None),
        "nested Span": (lambda d: Span(Span([0, 0, *d, 0], 1, len(d) + 3), 1, len(d) + 1), None),
        "LinkedList": (LinkedList, None),
        "bytearray": (lambda d: Span(bytearray(d)), (0, 255)),
        "memoryview": (lambda d: Span(memoryview(bytearray(d))), (0, 255)),
        **{f"array {code!r}": (lambda d, code=code: Span(array(code, d)), _limits(code))
           for code in "bBhHiIlLqQ"},
        **{f"memoryview {code!r}": (lambda d, code=code: Span(_view(code, d)), _limits(code)) for code in "hnP"},
    }

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([N - 1, N, N + 1, N + 300]),
           bounds=st.sampled_from([(0, 255), (0, 256), (-1, 255), (-300, 600)]),
           odd=st.sampled_from([None, True, _One.ONE, _Int(1), _UnhashableClassInt(1), _IntEqualClassInt(1), 1.0]),
           at=st.integers(0, N - 2), seed=st.integers(0, 2**32 - 1),
           pred=st.sampled_from([less, greater]))
    def test_gate_equals_sorted(self, n, bounds, odd, at, seed, pred):
        """Every store, counted or compared, sorts as ``sorted()`` does on a
        copy, down to each element's type; a window is counted exactly when
        it has ``_COUNT_MIN`` or more elements, all exact ints in range(256)."""
        rng = random.Random(seed)
        data = [rng.randint(*bounds) for _ in range(n)]
        if odd is not None:
            data[at] = odd
        for name, (make, limits) in self.GATE_STORES.items():
            values = data if limits is None else [min(max(int(v), limits[0]), limits[1]) for v in data]
            r = make(values)
            copy = list(r)
            expected = sorted(copy, reverse=pred is greater)
            counted = n >= self.N and all(type(v) is int and 0 <= v < 256 for v in copy)
            with mock.patch.object(rangealg, "_host_sort", wraps=rangealg._host_sort) as host_sort:
                sort(r, pred)
            assert list(r) == expected, name
            assert list(map(type, r)) == list(map(type, expected)), name
            assert host_sort.called is not counted, name

    @given(st.binary(min_size=N, max_size=3 * N), st.data())
    def test_random_windows(self, data, draw):
        lo = draw.draw(st.integers(0, len(data) - self.N))
        hi = draw.draw(st.integers(lo + self.N, len(data)))
        pred = draw.draw(st.sampled_from([less, greater]))
        for store in (bytearray(data), array("B", data)):
            assert sort(Span(store, lo, hi), pred) == (SortPath.RANDOM_ACCESS, hi - lo)
            assert bytes(store) == data[:lo] + bytes(sorted(data[lo:hi], reverse=pred is greater)) + data[hi:]


class TestSortProperties:
    @given(st.lists(st.integers(min_value=-50, max_value=50), max_size=200))
    def test_random_access_sorted_and_permuted(self, data):
        work = list(data)
        sort_random_access(work)
        assert Counter(work) == Counter(data)
        assert all(not (work[i + 1] < work[i]) for i in range(len(work) - 1))

    @given(st.lists(st.text(max_size=5), max_size=60))
    def test_forward_equals_random_access(self, data):
        linked = LinkedList(data)
        flat = list(data)
        sort_forward(linked, greater)
        sort_random_access(flat, greater)
        assert list(linked) == flat

    def test_adversarial_shapes(self):
        rng = random.Random(17)
        for shape in ("sorted", "reversed", "duplicates"):
            for _ in range(50):
                n = rng.randint(0, 300)
                if shape == "sorted":
                    data = sorted(rng.randint(-9, 9) for _ in range(n))
                elif shape == "reversed":
                    data = sorted((rng.randint(-9, 9) for _ in range(n)), reverse=True)
                else:
                    data = [rng.randint(0, 2) for _ in range(n)]
                work = list(data)
                report = sort(work)
                assert report.chosen_path is SortPath.RANDOM_ACCESS
                assert Counter(work) == Counter(data)
                assert work == sorted(data)


class TestPowerOfTwo:
    @pytest.mark.parametrize(
        "value,expected",
        [(2048, True), (1, True), (10000, False), (0, False), (1024, True), (-4, False)],
    )
    def test_examples(self, value, expected):
        assert is_power_of_two(value) is expected

    def test_exhaustive_small(self):
        for n in range(-2, 5000):
            assert is_power_of_two(n) is (n > 0 and bin(n).count("1") == 1)


class TestBuffer:
    def test_too_small(self):
        with pytest.raises(ConstraintError) as info:
            Buffer(str, 100)
        assert "too small" in str(info.value)

    def test_size_not_binary(self):
        with pytest.raises(ConstraintError) as info:
            Buffer(int, 10000)
        assert "not binary" in str(info.value)

    def test_accepted_sizes(self):
        assert len(Buffer(int, 2048)) == 2048
        assert len(Buffer(int, 1024)) == 1024

    def test_rejection_happens_before_allocation(self):
        allocations = []

        class Probe:
            def __init__(self):
                allocations.append(1)

        with pytest.raises(ConstraintError):
            Buffer(Probe, 100)
        assert allocations == []

    def test_default_elements(self):
        assert Buffer(int, 1024)[0] == 0
        assert Buffer(float, 1024)[1023] == 0.0

    def test_buffer_is_a_sortable_spanable_range(self):
        buf = Buffer(int, 1024)
        for i in range(len(buf)):
            buf[i] = -i
        assert sort(buf).chosen_path is SortPath.RANDOM_ACCESS
        assert buf[0] == -1023
        assert len(Span(buf, 10)) == 10

    def test_repr(self):
        assert repr(Buffer(int, 1024)) == "Buffer(int, 1024)"

    def test_non_integer_size(self):
        with pytest.raises(ConstraintError):
            Buffer(int, 2048.0)


class TestLinkedList:
    def test_iteration_and_len(self):
        ll = LinkedList("abc")
        assert list(ll) == ["a", "b", "c"] and len(ll) == 3

    def test_append(self):
        ll = LinkedList()
        ll.append(1)
        ll.append(2)
        assert list(ll) == [1, 2]

    def test_write_back_count_mismatch(self):
        ll = LinkedList([1, 2, 3])
        with pytest.raises(ValueError):
            ll.write_back([9, 8])
        assert list(ll) == [1, 2, 3]
        with pytest.raises(ValueError):
            ll.write_back([9, 8, 7, 6])
        assert list(ll) == [1, 2, 3] and len(ll) == 3
        ll.write_back(x * 10 for x in (3, 2, 1))
        assert list(ll) == [30, 20, 10]
        assert repr(LinkedList([1, "a"])) == "LinkedList([1, 'a'])"
        with pytest.raises(RuntimeError):
            for x in ll:
                ll.append(x)


class _Shape:
    def __init__(self, log, name):
        self._log = log
        self._name = name

    def draw(self):
        self._log.append(self._name)


class TestDrawAll:
    def test_order(self):
        log: list = []
        draw_all([_Shape(log, "a"), _Shape(log, "b"), _Shape(log, "c")])
        assert log == ["a", "b", "c"]

    def test_empty(self):
        log: list = []
        draw_all([])
        assert log == []

    def test_heterogeneous_handles_in_a_forward_range(self):
        log: list = []

        class Other:
            def draw(self):
                log.append("other")

        draw_all(LinkedList([_Shape(log, "a"), Other()]))
        assert log == ["a", "other"]

    def test_non_drawable_rejected(self):
        with pytest.raises(ConstraintError):
            draw_all([object()])

    def test_non_iterable_rejected(self):
        with pytest.raises(ConstraintError):
            draw_all(7)
