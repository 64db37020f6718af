import enum
import math

import pytest
from hypothesis import given, strategies as st

from checked import (
    ConstraintError,
    FormatError,
    FormatErrorKind,
    NumericKind,
    Number,
    format_render,
    print_concat,
    render,
    supported_types,
)

import oracle


class TestPrintConcat:
    def test_hello_world(self):
        out = print_concat("Hello ", "world", "!", " It's now ", "2025-05-22 16:55:25.2750128")
        assert out == "Hello world! It's now 2025-05-22 16:55:25.2750128"

    def test_empty(self):
        assert print_concat() == ""

    def test_fold_over_numbers(self):
        assert print_concat(1, 2, 3) == "123"


class TestFormatRender:
    def test_two_placeholders(self):
        out = format_render("Hello {}! It's now {}", "world", "2025-05-22 17:50:42.3606077")
        assert out == "Hello world! It's now 2025-05-22 17:50:42.3606077"

    def test_argument_missing(self):
        with pytest.raises(FormatError) as info:
            format_render("{}")
        assert info.value.kind is FormatErrorKind.ARGUMENT_MISSING
        assert info.value.position == 0
        assert "argument missing" in str(info.value)

    def test_too_many_arguments(self):
        with pytest.raises(FormatError) as info:
            format_render("x", 1)
        assert info.value.kind is FormatErrorKind.TOO_MANY_ARGUMENTS
        assert info.value.position == 1
        assert "too many arguments" in str(info.value)

    def test_brace_then_other_character(self):
        assert format_render("{x") == "{x"
        assert format_render("a{bc") == "a{bc"

    def test_trailing_brace_is_emitted(self):
        assert format_render("ab{") == "ab{"

    def test_double_brace_has_no_placeholder(self):
        assert format_render("{{}}") == "{{}}"
        with pytest.raises(FormatError):
            format_render("{{}}", 1)

    def test_empty_format(self):
        assert format_render("") == ""

    def test_absent_format_renders_empty(self):
        assert format_render(None) == ""
        with pytest.raises(FormatError) as info:
            format_render(None, 1)
        assert info.value.kind is FormatErrorKind.TOO_MANY_ARGUMENTS

    def test_error_position_points_at_the_failing_placeholder(self):
        with pytest.raises(FormatError) as info:
            format_render("ab{}cd{}", 1)
        assert info.value.position == 6

    def test_numbers_render_as_their_value(self):
        assert format_render("{} + {} = {}", Number(1), Number(2), Number(3)) == "1 + 2 = 3"

    def test_render_is_host_default(self):
        assert render(7.8) == "7.8"
        assert render("x") == "x"

    @pytest.mark.parametrize("fmt", [b"{}", ["{", "}"], 7])
    def test_non_str_format_is_refused(self, fmt):
        with pytest.raises(ConstraintError):
            format_render(fmt)

    def test_percent_is_literal_text(self):
        assert format_render("100%") == "100%"
        assert format_render("%s") == "%s"
        assert format_render("%(x)s {}", {"x": 1}) == "%(x)s {'x': 1}"
        assert format_render("%d%% {}%{", 5) == "%d%% 5%{"

    def test_a_lone_tuple_argument_renders_as_its_str(self):
        assert format_render("{}", (1, 2)) == str((1, 2))
        assert format_render("<{}>", ()) == "<()>"
        assert format_render("{} {}", (1,), {}) == "(1,) {}"

    def test_more_distinct_texts_than_the_cache_holds(self):
        from checked.printfmt import _compile

        texts = [str(i) + "{}-{x{}" for i in range(_compile.cache_info().maxsize + 50)]
        for _ in range(2):  # the second pass finds the first texts evicted
            for i, fmt in enumerate(texts):
                assert format_render(fmt, i, -i) == oracle.substitute(fmt, [i, -i])
            with pytest.raises(FormatError) as info:
                format_render(texts[0], 1)
            assert info.value.position == 6


class _Level(enum.IntEnum):
    HIGH = 3


class _Fancy(float):
    def __format__(self, spec):
        return "fancy"


class _NoFormat:
    def __repr__(self):
        return "_NoFormat()"

    def __str__(self):
        return "no-format"

    def __format__(self, spec):
        raise TypeError("__format__ must not be called")


class _Loud(str):
    def __str__(self):
        return "LOUD"


# Values whose str() the host format text must reproduce.  On 3.10 an
# IntEnum member formats as its int but str()s as "_Level.HIGH"; _Fancy and
# _NoFormat separate str() from format() on every version.
RENDER_VALUES = [
    _Level.HIGH, _Fancy(1.5), _NoFormat(), _Loud("quiet"),
    True, -0.0, math.nan, math.inf, -math.inf, 10**30, None, b"x",
] + [
    Number(-2.5 if t.kind is NumericKind.FLOAT else t.max, t) for t in supported_types()
]


class TestRendersWithStr:
    """Every argument renders as str() of it, never as format() of it."""

    def test_one_row_of_every_value(self):
        fmt = "|".join(["{}"] * len(RENDER_VALUES))
        assert format_render(fmt, *RENDER_VALUES) == oracle.substitute(fmt, RENDER_VALUES)

    @pytest.mark.parametrize("value", RENDER_VALUES, ids=repr)
    def test_first_and_later_placeholders(self, value):
        fmt = "<{}> {x {}"
        assert format_render(fmt, value, value) == oracle.substitute(fmt, [value, value])


_fragments = st.lists(
    st.sampled_from(["{}", "{", "}", "a", "bc", "{{", "}}", "{x", "end", "%", "%s", "%%", "%d", "%(x)s"]),
    max_size=12,
)


class TestProperties:
    @given(st.text(alphabet=st.characters(blacklist_characters="{"), max_size=40))
    def test_literal_fidelity(self, text):
        assert format_render(text) == text

    @given(_fragments, st.integers(min_value=-2, max_value=2))
    def test_conservation(self, fragments, delta):
        fmt = "".join(fragments)
        offsets = oracle.placeholder_offsets(fmt)
        slots = oracle.placeholder_count(fmt)
        assert len(offsets) == slots
        arg_count = max(0, slots + delta)
        args = list(range(arg_count))
        if arg_count == slots:
            assert format_render(fmt, *args) == oracle.substitute(fmt, args)
        else:
            with pytest.raises(FormatError) as info:
                format_render(fmt, *args)
            if arg_count < slots:
                assert info.value.kind is FormatErrorKind.ARGUMENT_MISSING
                assert info.value.position == offsets[arg_count]
            else:
                assert info.value.kind is FormatErrorKind.TOO_MANY_ARGUMENTS
                assert info.value.position == len(fmt)

    @given(st.lists(st.integers(), max_size=8))
    def test_concat_equals_all_placeholder_format(self, values):
        assert print_concat(*values) == format_render("{}" * len(values), *values)
