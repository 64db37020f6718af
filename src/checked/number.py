"""A numeric wrapper that makes narrowing checks implicit.

Every way of getting a value into a ``Number`` goes through the checked
converter of its type pair, so a value that would not survive the
conversion raises ``NarrowError`` instead of silently changing.  Mixed-type
arithmetic promotes both operands into a common type chosen by a fixed
lattice: floats beat integers, more digits beat fewer, and between
equal-size integers of differing signedness the unsigned type wins
(mirroring the usual host arithmetic rules; safety comes from
check-converting the operands, not from the lattice).  Results that do not
fit the common type raise ``CheckedOverflowError`` rather than wrapping or
saturating.

Comparisons are mathematically correct for integer operands of any
signedness mix, so ``Number(-1) < Number(2, "u32")`` is True.  Mixed
float/integer comparisons happen in the float common type with its usual
rounding, and float comparisons keep the host partial order for NaN.  The
lattice itself is one per-pair table in ``narrowing``, filled when each type
is registered: each entry is the pair's arithmetic plan (common type, the
two operand converters into it, its bounds, whether it is a float), so an
operation does one lookup and applies its operator inline.

Numbers are immutable values; all operations are pure and thread-safe.
"""

from __future__ import annotations

import math
import operator
from typing import Optional, Union

from .narrowing import (
    ConstraintError,
    NumericTraits,
    NumType,
    TypeSpec,
    _ARITH,
    _CONVERT,
    deduced_type,
    numeric_type,
    supported_types,
)

__all__ = ["CheckedOverflowError", "Number", "common_type", "compare_lt"]


class CheckedOverflowError(OverflowError):
    """An arithmetic result cannot be represented in the common type."""

    def __init__(self, operation: str, operands, reason: str = "result not representable"):
        self.operation = operation
        self.operand_text = tuple(repr(v) for v in operands)
        self.reason = reason
        super().__init__(f"{operation}({', '.join(self.operand_text)}): {reason}")


# --- common-type lattice -----------------------------------------------------

def common_type(a: Union[TypeSpec, NumericTraits], b: Union[TypeSpec, NumericTraits]) -> NumType:
    """The type mixed arithmetic on the two given types executes in.

    Deterministic, commutative, and frozen in a per-pair table when the
    types are registered.  Accepts types, names, or traits.
    """
    return _ARITH[(_resolve(a), _resolve(b))][0]


def _resolve(spec) -> NumType:
    if isinstance(spec, NumericTraits):
        for t in supported_types():
            if t.traits == spec:
                return t
        raise ConstraintError(f"no registered type has traits {spec}")
    return numeric_type(spec)


# --- the wrapper -------------------------------------------------------------

def _wrap(numtype: NumType, value) -> "Number":
    # Internal fast path for values already known to inhabit `numtype`.
    n = object.__new__(Number)
    n._type = numtype
    n._value = value
    return n


def _as_number(value) -> Optional["Number"]:
    if isinstance(value, Number):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return _wrap(deduced_type(value), value)


class Number:
    """A numeric value that refuses to be narrowed silently.

    ``Number(v)`` deduces the type from the bare value (integers follow the
    i32-then-i64 literal ladder, floats are f64); ``Number(v, "u32")``
    converts and raises ``NarrowError`` if the value would change.  There is
    no unchecked way in.  Instances are immutable: ``assign`` checks a new
    value into the same type and returns a new Number.

    Arithmetic with other Numbers or bare numerics promotes into the common
    type (see ``common_type``).  Division follows the common type: truncated
    toward zero for integers, ordinary float division otherwise.
    """

    __slots__ = ("_type", "_value")

    def __init__(self, value, of: Optional[TypeSpec] = None):
        if isinstance(value, Number):
            source, raw = value._type, value._value
        else:
            source = deduced_type(value)
            raw = value
        target = source if of is None else numeric_type(of)
        self._type = target
        self._value = _CONVERT[(source, target)](raw)

    @property
    def value(self):
        """The wrapped value, unchanged."""
        return self._value

    @property
    def numtype(self) -> NumType:
        return self._type

    def assign(self, value) -> "Number":
        """Check ``value`` into this Number's type; the original is untouched."""
        return Number(value, of=self._type)

    def __repr__(self) -> str:
        return f"Number({self._value!r}, {self._type.name})"

    def __str__(self) -> str:
        return str(self._value)

    def __hash__(self):
        return hash(self._value)

    # arithmetic ---------------------------------------------------------

    def __add__(self, other):
        return _arith("add", self, other)

    def __radd__(self, other):
        return _arith("add", self, other, reflected=True)

    def __sub__(self, other):
        return _arith("sub", self, other)

    def __rsub__(self, other):
        return _arith("sub", self, other, reflected=True)

    def __mul__(self, other):
        return _arith("mul", self, other)

    def __rmul__(self, other):
        return _arith("mul", self, other, reflected=True)

    def __truediv__(self, other):
        return _arith("div", self, other)

    def __rtruediv__(self, other):
        return _arith("div", self, other, reflected=True)

    # comparisons --------------------------------------------------------

    def __lt__(self, other):
        rhs = _as_number(other)
        return NotImplemented if rhs is None else _compare(operator.lt, self, rhs)

    def __gt__(self, other):
        rhs = _as_number(other)
        return NotImplemented if rhs is None else _compare(operator.gt, self, rhs)

    def __le__(self, other):
        rhs = _as_number(other)
        return NotImplemented if rhs is None else _compare(operator.le, self, rhs)

    def __ge__(self, other):
        rhs = _as_number(other)
        return NotImplemented if rhs is None else _compare(operator.ge, self, rhs)

    def __eq__(self, other):
        rhs = _as_number(other)
        return NotImplemented if rhs is None else _compare(operator.eq, self, rhs)


def _trunc_div(x: int, y: int) -> int:
    q = x // y
    if (x % y) and ((x < 0) != (y < 0)):
        q += 1
    return q


def _arith(name: str, lhs: Number, other, reflected: bool = False) -> Number:
    rhs = _as_number(other)
    if rhs is None:
        return NotImplemented
    a, b = (rhs, lhs) if reflected else (lhs, rhs)
    common, convert_a, convert_b, lo, hi, is_float = _ARITH[(a._type, b._type)]
    x = convert_a(a._value)
    y = convert_b(b._value)
    if name == "add":
        result = x + y
    elif name == "sub":
        result = x - y
    elif name == "mul":
        result = x * y
    elif y == 0:
        raise CheckedOverflowError("div", (x, y), "divide-by-zero")
    else:
        result = x / y if is_float else _trunc_div(x, y)
    if is_float:
        result = common._cast(result)
        if not math.isfinite(result) and math.isfinite(x) and math.isfinite(y):
            raise CheckedOverflowError(name, (x, y))
    elif result < lo or result > hi:
        raise CheckedOverflowError(name, (x, y))
    return _wrap(common, result)


def _compare(op, a: Number, b: Number) -> bool:
    # Python compares integers exactly whatever their signs, so only a float
    # common type changes the operands: both are rounded into it first.
    common, _, _, _, _, is_float = _ARITH[(a._type, b._type)]
    if is_float:
        return op(common._cast(a._value), common._cast(b._value))
    return op(a._value, b._value)


def compare_lt(x, y) -> bool:
    """Mathematically correct less-than across any integer signedness mix.

    Accepts Numbers or bare numeric values.  Integer operands are compared
    as exact values, never converted, so a negative signed operand is below
    any unsigned one, which is exactly where the host rules go wrong.
    """
    a = _as_number(x)
    b = _as_number(y)
    if a is None or b is None:
        raise ConstraintError("compare_lt needs numeric operands")
    return _compare(operator.lt, a, b)
