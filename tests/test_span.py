import math
from array import array
from enum import IntEnum

import pytest
from hypothesis import given, strategies as st

from checked import (
    F64,
    U8,
    U32,
    U64,
    Buffer,
    ConstraintError,
    LinkedList,
    NarrowError,
    NumericKind,
    Number,
    RangeError,
    Span,
    is_spanable,
    register_numeric_type,
    register_spanable,
    sort,
    supported_types,
)


def hundred():
    return list(range(100))


class TestCheck:
    def test_in_range(self):
        assert Span(hundred()).check(10) == 10

    def test_length_is_excluded(self):
        with pytest.raises(RangeError):
            Span(hundred()).check(100)

    def test_far_out(self):
        with pytest.raises(RangeError) as info:
            Span(hundred()).check(200)
        assert info.value.attempted == 200 and info.value.length == 100


class TestConstruction:
    def test_whole_range(self):
        assert len(Span(hundred())) == 100

    def test_empty_range(self):
        assert len(Span([])) == 0

    def test_array_storage(self):
        a = array("d", [0.5] * 10)
        s = Span(a)
        assert len(s) == 10 and s[3] == 0.5

    def test_prefix(self):
        assert len(Span(hundred(), 50)) == 50

    def test_prefix_full_count_is_allowed(self):
        assert len(Span(hundred(), 100)) == 100

    def test_prefix_beyond_size(self):
        with pytest.raises(RangeError):
            Span(hundred(), 200)

    def test_negative_count_fails_before_range_logic(self):
        with pytest.raises(NarrowError):
            Span(hundred(), -500)

    def test_subrange(self):
        s = Span(hundred(), 10, 20)
        assert len(s) == 10 and s[0] == 10 and s[9] == 19

    def test_empty_subrange(self):
        assert len(Span(hundred(), 7, 7)) == 0

    def test_reversed_bounds(self):
        with pytest.raises(RangeError):
            Span(hundred(), 20, 10)

    def test_high_beyond_size(self):
        with pytest.raises(RangeError):
            Span(hundred(), 0, 101)

    def test_negative_bound(self):
        with pytest.raises(NarrowError):
            Span(hundred(), -1, 5)

    def test_span_of_span_flattens(self):
        outer = Span(hundred(), 10, 90)
        inner = Span(outer, 5, 15)
        assert list(inner) == list(range(15, 25))

    def test_non_contiguous_rejected(self):
        for bad in (LinkedList([1, 2]), (x for x in range(3)), {"a": 1}, "abc", (1, 2)):
            with pytest.raises(ConstraintError):
                Span(bad)

    def test_registration_extends_the_spanable_set(self):
        class Chunk:
            def __init__(self):
                self._data = [1, 2, 3]

            def __len__(self):
                return len(self._data)

            def __getitem__(self, i):
                return self._data[i]

            def __setitem__(self, i, v):
                self._data[i] = v

        with pytest.raises(ConstraintError):
            Span(Chunk())
        register_spanable(Chunk)
        assert is_spanable(Chunk())
        assert list(Span(Chunk())) == [1, 2, 3]

    def test_only_a_type_can_be_registered(self):
        with pytest.raises(ConstraintError, match="expects a type"):
            register_spanable(42)

    @pytest.mark.parametrize("missing", ["__getitem__", "__len__"])
    def test_a_class_a_span_cannot_read_is_refused(self, missing, registry):
        """Every Span reads its store's length and items: a class without one
        is refused when it is registered, not when a Span is built over it."""
        members = {"__getitem__": lambda self, i: 0, "__len__": lambda self: 1}
        del members[missing]
        cls = type("Partial", (), members)
        with pytest.raises(ConstraintError, match=f"Partial does not provide {missing}") as info:
            register_spanable(cls)
        assert type(info.value) is ConstraintError
        assert not is_spanable(cls())
        with pytest.raises(ConstraintError, match="not a contiguous range"):
            Span(cls())


LEN = 1024  # every store below holds 0 .. LEN - 1, in order


class _Three(IntEnum):
    X = 3


def _bound_stores():
    """A list, a Buffer and a nested Span, each holding ``range(LEN)``."""
    buf = Buffer(int, LEN)
    for i in range(LEN):
        buf[i] = i
    return {
        "list": list(range(LEN)),
        "Buffer": buf,
        "nested Span": Span(Span(list(range(-7, LEN + 9)), 7, 7 + LEN)),
    }


def _window(start, length):
    """A span's outcome: the elements it shows."""
    return list(range(start, start + length))


def _narrow(source):
    return (NarrowError, source, "u32")


def _beyond(attempted):
    return (RangeError, attempted, LEN)


_REFUSED = (ConstraintError,)
SRC = "the Number's own type"

# bound -> what each entry point gives for it, in the order of _BOUND_CALLS:
# Span(r, v), Span(r, v, LEN), Span(r, v, 2), Span(r, 0, v), Span(r, v, -1)
# (a refused second bound), Span.unchecked(r, v) and Span(r).check(v).  A
# span is the window it shows, an unchecked span its length, a check its
# index; an error is its class with RangeError's (attempted, length) or
# NarrowError's (source_name, target_name).
_NEG = _narrow("i32")
_ALL = _window(0, LEN)
BOUND_TABLE = [
    (None, _ALL, _REFUSED, _REFUSED, [], _REFUSED, _REFUSED, _REFUSED),
    (0, [], _ALL, _window(0, 2), [], _NEG, 0, 0),
    (LEN, _ALL, [], _beyond(LEN), _ALL, _NEG, LEN, _beyond(LEN)),
    (LEN + 1, *[_beyond(LEN + 1)] * 4, _NEG, LEN + 1, _beyond(LEN + 1)),
    (-1, *[_NEG] * 7),
    (-(2**40), *[_narrow("i64")] * 7),
    (2.0, _window(0, 2), _window(2, LEN - 2), [], _window(0, 2), _NEG, 2, 2),
    (2.5, *[_narrow("f64")] * 7),
    (math.nan, *[_narrow("f64")] * 7),
    (math.inf, *[_narrow("f64")] * 7),
    (True, *[_REFUSED] * 7),
    (_Three.X, _window(0, 3), _window(3, LEN - 3), _beyond(3), _window(0, 3), _NEG, 3, 3),
    ("3", *[_REFUSED] * 7),
    (2**32 - 1, *[_beyond(2**32 - 1)] * 4, _NEG, 2**32 - 1, _beyond(2**32 - 1)),
    (2**32, *[_narrow("i64")] * 7),
    (2**64, *[_REFUSED] * 7),  # no registered type holds it
]
# The value inside a Number -> the same columns; SRC stands for the type
# of the Number, which the NarrowError names.
NUMBER_BOUND_TABLE = [
    (0, [], _ALL, _window(0, 2), [], _NEG, 0, 0),
    (3, _window(0, 3), _window(3, LEN - 3), _beyond(3), _window(0, 3), _NEG, 3, 3),
    (LEN + 1, *[_beyond(LEN + 1)] * 4, _NEG, LEN + 1, _beyond(LEN + 1)),
    (-1, *[_narrow(SRC)] * 7),
]

_BOUND_CALLS = {
    "Span(r, v)": lambda r, v: Span(r, v),
    "Span(r, v, LEN)": lambda r, v: Span(r, v, LEN),
    "Span(r, v, 2)": lambda r, v: Span(r, v, 2),
    "Span(r, 0, v)": lambda r, v: Span(r, 0, v),
    "Span(r, v, -1)": lambda r, v: Span(r, v, -1),
    "Span.unchecked(r, v)": lambda r, v: Span.unchecked(r, v),
    "Span(r).check(v)": lambda r, v: Span(r).check(v),
}


def _bound_cases():
    cases = [pytest.param(v, outcomes, id=repr(v)) for v, *outcomes in BOUND_TABLE]
    for value, *outcomes in NUMBER_BOUND_TABLE:
        for t in supported_types():
            try:
                number = Number(value, t)
            except NarrowError:  # the type does not hold the value
                continue
            typed = [_narrow(t.name) if o == _narrow(SRC) else o for o in outcomes]
            cases.append(pytest.param(number, typed, id=repr(number)))
    return cases


def _bound_outcome(name, call, store, value):
    """What the entry point gives, in the table's terms."""
    try:
        got = call(store, value)
    except Exception as exc:  # the class itself is compared, not caught by kind
        if type(exc) is RangeError:
            return (RangeError, exc.attempted, exc.length)
        if type(exc) is NarrowError:
            return (NarrowError, exc.source_name, exc.target_name)
        return (type(exc),)
    if name == "Span(r).check(v)":
        assert type(got) is int, name
        return got
    assert type(len(got)) is int, name
    return len(got) if name == "Span.unchecked(r, v)" else list(got)


class TestBoundTable:
    """Every entry point that converts a bound, over a list, a Buffer and
    a nested Span, gives the outcome the table writes down: the window,
    length or index, or the error class with its fields."""

    @pytest.mark.parametrize("store", ["list", "Buffer", "nested Span"])
    @pytest.mark.parametrize("value,outcomes", _bound_cases())
    def test_every_entry_point(self, store, value, outcomes):
        r = _bound_stores()[store]
        for (name, call), want in zip(_BOUND_CALLS.items(), outcomes, strict=True):
            assert _bound_outcome(name, call, r, value) == want, (name, value)

    @pytest.mark.parametrize("store", ["list", "Buffer", "nested Span"])
    def test_a_bound_past_u64_with_and_without_i128(self, store, registry):
        r = _bound_stores()[store]
        register_numeric_type("i128", NumericKind.SIGNED_INT, 127, 16)
        for name, call in _BOUND_CALLS.items():
            assert _bound_outcome(name, call, r, 2**64) == _narrow("i128"), name
        registry()
        for name, call in _BOUND_CALLS.items():
            assert _bound_outcome(name, call, r, 2**64) == _REFUSED, name


class TestUnchecked:
    def test_takes_the_callers_count(self):
        assert len(Span.unchecked(hundred(), 10)) == 10

    def test_zero(self):
        assert list(Span.unchecked(hundred(), 0)) == []

    def test_indexing_still_checks_the_claimed_length(self):
        s = Span.unchecked(hundred(), 10)
        assert s[9] == 9
        with pytest.raises(RangeError):
            s[10]

    def test_negative_count_still_fails(self):
        with pytest.raises(NarrowError):
            Span.unchecked(hundred(), -1)

    @pytest.mark.parametrize("storage", [5, object(), (3, 1, 2), "312", {1: 2}],
                             ids=["int", "object", "tuple", "str", "dict"])
    def test_storage_is_refused_as_span_refuses_it(self, storage):
        """Only the extent goes unchecked: storage that ``Span(storage)``
        refuses is refused with the same error, before the count is read."""
        with pytest.raises(ConstraintError) as built:
            Span(storage)
        for count in (2, -1):
            with pytest.raises(ConstraintError) as claimed:
                Span.unchecked(storage, count)
            assert type(claimed.value) is ConstraintError
            assert str(claimed.value) == str(built.value) == f"{type(storage).__name__} is not a contiguous range"


class TestIndexing:
    def test_read(self):
        assert Span(hundred())[10] == 10

    def test_negative_index_narrows(self):
        with pytest.raises(NarrowError):
            Span(hundred())[-10]

    def test_last_valid(self):
        assert Span(hundred())[99] == 99

    def test_beyond_length(self):
        with pytest.raises(RangeError):
            Span(hundred())[200]

    def test_number_index(self):
        assert Span(hundred())[Number(3, U32)] == 3

    def test_float_index_must_be_integral(self):
        assert Span(hundred())[7.0] == 7
        with pytest.raises(NarrowError):
            Span(hundred())[7.5]

    def test_bool_index_rejected(self):
        with pytest.raises(ConstraintError):
            Span(hundred())[True]

    def test_write_through(self):
        data = hundred()
        s = Span(data, 10, 20)
        s[0] = -1
        assert data[10] == -1

    @pytest.mark.parametrize("index", [0, 1, Number(1, U8)], ids=["0", "1", "Number"])
    def test_write_to_read_only_memory_raises_constraint_error(self, index):
        data = memoryview(b"abc")
        for s in (Span(data), Span(data, 1, 3), Span(Span(data), 1, 3), Span.unchecked(data, 3)):
            with pytest.raises(ConstraintError, match="^memoryview store is read-only$") as info:
                s[index] = 1
            assert type(info.value) is ConstraintError
        assert bytes(data) == b"abc"

    @pytest.mark.parametrize("index, error", [(2, RangeError), (-1, NarrowError), (Number(9, U8), RangeError),
                                              (True, ConstraintError), (None, ConstraintError)])
    def test_a_read_only_stores_index_error_keeps_precedence(self, index, error):
        data = memoryview(b"abc")
        with pytest.raises(error) as info:
            Span(data, 1, 3)[index] = 1
        assert "read-only" not in str(info.value) and bytes(data) == b"abc"

    def test_a_writable_stores_type_error_passes_through(self):
        s = Span(memoryview(bytearray(b"abc")))
        with pytest.raises(TypeError, match="invalid type") as info:
            s[0] = "x"
        assert type(info.value) is TypeError
        with pytest.raises(TypeError, match="integer") as info:
            Span(bytearray(b"abc"))[0] = "x"
        assert type(info.value) is TypeError

    def test_indexing_by_another_spans_element(self):
        sa = Span(hundred())
        sv = Span([0.0, 1.0, 2.0, 3.0])
        assert sa[sv[2]] == 2
        with pytest.raises(NarrowError):
            sa[Span([0.5] * 4)[2]]


# index -> the element it reads (its own value here), or the error it raises
INDEX_TABLE = [
    (10, 10),
    (-1, NarrowError),
    (100, RangeError),
    (True, ConstraintError),
    (1.0, 1),
    (Number(3, U32), 3),
    (2**40, NarrowError),
    (2**64, ConstraintError),  # no registered type holds it, as in convert
]


class TestIndexTable:
    """Reads and writes agree index for index, results and errors alike."""

    @pytest.mark.parametrize("index,expected", INDEX_TABLE, ids=repr)
    def test_read(self, index, expected):
        s = Span(hundred())
        if isinstance(expected, type):
            with pytest.raises(expected):
                s[index]
        else:
            assert type(s[index]) is int and s[index] == expected

    @pytest.mark.parametrize("index,expected", INDEX_TABLE, ids=repr)
    def test_write(self, index, expected):
        data = hundred()
        s = Span(data)
        if isinstance(expected, type):
            with pytest.raises(expected):
                s[index] = -7
            assert data == hundred()
        else:
            s[index] = -7
            assert data[expected] == -7 and data.count(-7) == 1

    def test_a_registered_wider_type_makes_a_huge_index_narrow(self, registry):
        register_numeric_type("i128_span_test", NumericKind.SIGNED_INT, 127, 16)
        with pytest.raises(NarrowError):
            Span(hundred())[2**64]
        with pytest.raises(NarrowError):
            Span(hundred(), 0, 2**64)
        registry()
        with pytest.raises(ConstraintError):
            Span(hundred())[2**64]

    def test_subrange_offsets_the_fast_path(self):
        data = hundred()
        s = Span(data, 40, 60)
        assert s[0] == 40 and s[19] == 59
        s[19] = -1
        assert data[59] == -1
        with pytest.raises(RangeError):
            s[20]


def _outcome(call):
    """What ``call()`` returns, or the type of the documented error it raises."""
    try:
        return call()
    except (ConstraintError, NarrowError, RangeError) as exc:
        return type(exc)


def _documented(value):
    """A Number index converts to u32 first: the element it names, a
    ``RangeError`` past the end, and a ``NarrowError`` when it is no u32
    value (negative, fractional or too large)."""
    if value != int(value) or not 0 <= value <= U32.max:
        return NarrowError
    return int(value) if value < 100 else RangeError


def _number_indices():
    """Each INDEX_TABLE entry as an int, as a Number of every integer type
    and of f64 that holds it, and as a fractional f64 next to it."""
    values = sorted({0, 99, *(i.value if isinstance(i, Number) else int(i) for i, _ in INDEX_TABLE)})
    types = [t for t in supported_types() if t.kind is not NumericKind.FLOAT] + [F64]
    cases = []
    for value in values:
        for t in types:
            try:
                cases.append((value, Number(value, t)))
            except (ConstraintError, NarrowError):  # the type does not hold the value
                pass
        if abs(value) < 2**52:
            cases.append((value + 0.5, Number(value + 0.5, F64)))
    return cases


class TestNumberIndexDifferential:
    """A Number index reads, writes and checks as its type's conversion to
    u32 says, and as the int index of the same value where one exists."""

    @pytest.mark.parametrize("value,index", _number_indices(), ids=repr)
    def test_read_write_and_check_agree(self, value, index):
        expected = _documented(value)
        read = _outcome(lambda: Span(hundred())[index])
        checked = _outcome(lambda: Span(hundred()).check(index))
        assert read == checked == expected
        if not isinstance(expected, type):
            assert type(read) is int and type(checked) is int
        data = hundred()
        wrote = _outcome(lambda: Span(data).__setitem__(index, -7))
        if isinstance(expected, type):
            assert wrote is expected and data == hundred()
        else:
            assert wrote is None and data[expected] == -7 and data.count(-7) == 1
        if type(value) is int and value <= U64.max:  # the int path agrees
            assert _outcome(lambda: Span(hundred())[value]) == expected
            assert _outcome(lambda: Span(hundred()).check(value)) == expected

    def test_int_and_number_subclasses_take_the_checked_path(self):
        class Index(int):
            pass

        class Checked(Number):
            __slots__ = ()

        s = Span(hundred())
        for index in (Index, lambda v: Checked(v, "i64")):
            assert s[index(3)] == 3 and s.check(index(3)) == 3
            assert _outcome(lambda: s[index(-1)]) is NarrowError
            assert _outcome(lambda: s[index(100)]) is RangeError
        assert _outcome(lambda: s[True]) is ConstraintError


def _buffer_and_list():
    """A Buffer and a list holding the same 1024 elements."""
    buf = Buffer(int, 1024)
    for i in range(len(buf)):
        buf[i] = (i * 37 + 11) % 97
    return buf, list(buf)


class TestBufferSpan:
    """A Span over a Buffer views the Buffer's list, and behaves as a Span
    over an equal list."""

    def test_reads_and_iteration(self):
        buf, data = _buffer_and_list()
        sb, sl = Span(buf, 100, 900), Span(data, 100, 900)
        assert len(sb) == len(sl) == 800
        assert [sb[i] for i in range(800)] == [sl[i] for i in range(800)] == data[100:900]
        assert list(sb) == list(sl)
        assert sb[Number(5, U8)] == sl[Number(5, U8)] == data[105]
        for bad in (-1, 800, Number(800, U32), 7.5, True):
            assert _outcome(lambda: sb[bad]) is _outcome(lambda: sl[bad])

    def test_writes_show_through_the_buffer(self):
        buf, data = _buffer_and_list()
        s = Span(buf, 100, 900)
        s[3] = -1
        s[Number(4, U8)] = -2
        assert buf[103] == -1 and buf[104] == -2
        twin = Span(data, 100, 900)
        for bad in (-1, 800, Number(800, U32)):
            assert _outcome(lambda: s.__setitem__(bad, -3)) is _outcome(lambda: twin.__setitem__(bad, -3))
        data[103:105] = [-1, -2]
        assert list(buf) == data

    def test_a_write_during_iteration_is_seen(self):
        buf, _ = _buffer_and_list()
        s = Span(buf, 1, 3)
        seen = []
        for v in s:
            seen.append(v)
            if len(seen) == 1:
                s[1] = 300
        assert seen == [buf[1], 300] and buf[2] == 300

    def test_sort_and_nested_span(self):
        buf, data = _buffer_and_list()
        nb, nl = Span(Span(buf, 100, 900), 10, 500), Span(Span(data, 100, 900), 10, 500)
        assert list(nb) == list(nl) == data[110:600]
        sort(nb)
        sort(nl)
        assert list(buf) == data and data[110:600] == sorted(data[110:600])

    def test_repr_names_the_list(self):
        assert repr(Span(Buffer(int, 1024), 2, 4)) == "Span(length=2, offset=2, storage=list)"

    def test_a_buffer_subclass_keeps_its_item_access(self):
        class Logged(Buffer):
            __slots__ = ()

            def __getitem__(self, index):
                reads.append(index)
                return super().__getitem__(index)

            def __setitem__(self, index, value):
                writes.append(index)
                super().__setitem__(index, value)

        reads, writes = [], []
        store = Logged(int, 1024)
        s = Span(store, 2, 5)
        assert s[1] == 0 and reads == [3]
        assert list(s) == [0, 0, 0] and reads == [3, 2, 3, 4]
        assert list(LinkedList(s)) == [0, 0, 0] and reads == [3, 2, 3, 4, 2, 3, 4]
        sort(s)
        assert reads == [3, 2, 3, 4, 2, 3, 4, 2, 3, 4] and writes == [2, 3, 4]
        assert "storage=Logged" in repr(s)
        # The bare subclass sorts through its own item access too.
        store[1023] = -1
        reads.clear()
        writes.clear()
        assert sort(store).element_count == 1024
        assert reads == writes == list(range(1024))
        assert list(store) == [-1] + [0] * 1023


class TestIteration:
    def test_order(self):
        assert list(Span([1, 2, 3])) == [1, 2, 3]

    def test_empty(self):
        assert list(Span([])) == []

    def test_fold_matches_source(self):
        data = [float(i) for i in range(10)]
        assert sum(Span(data)) == sum(data)

    def test_a_write_during_iteration_is_seen(self):
        data = [1, 2, 3, 4]
        s = Span(data, 1, 3)
        seen = []
        for v in s:
            seen.append(v)
            if len(seen) == 1:
                s[1] = 30
        assert seen == [2, 30]


class TestProperties:
    @given(
        st.lists(st.integers(), max_size=50),
        st.one_of(
            st.integers(min_value=-100, max_value=100),
            st.floats(allow_nan=False, allow_infinity=False, min_value=-100, max_value=100),
        ),
    )
    def test_no_out_of_bounds_access(self, data, index):
        s = Span(data)
        try:
            value = s[index]
        except NarrowError:
            assert isinstance(index, float) and not float(index).is_integer() or index < 0
        except RangeError:
            assert index >= len(data)
        else:
            assert value == data[int(index)]

    @given(st.data())
    def test_subrange_composition(self, data):
        base = data.draw(st.lists(st.integers(), min_size=1, max_size=40))
        low = data.draw(st.integers(min_value=0, max_value=len(base)))
        high = data.draw(st.integers(min_value=low, max_value=len(base)))
        sub = Span(base, low, high)
        whole = Span(base)
        for i in range(len(sub)):
            assert sub[i] == whole[low + i]

    @given(st.data())
    def test_prefix_indexable_exactly_below_count(self, data):
        base = data.draw(st.lists(st.integers(), max_size=40))
        count = data.draw(st.integers(min_value=0, max_value=len(base)))
        s = Span(base, count)
        for i in range(count):
            assert s[i] == base[i]
        with pytest.raises(RangeError):
            s[count]
