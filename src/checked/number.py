"""A numeric wrapper that makes narrowing checks implicit.

Every way of getting a value into a ``Number`` is checked as its type
pair's converter checks it, so a value that would not survive the
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
rounding, and float comparisons keep the host partial order for NaN.

The lattice lives on the types: each ``NumType`` has a ``plans`` row, keyed
by the other operand's type and filled when each type is registered, of
plans ``(common, add, sub, mul, div, round_a, round_b)``.  An operation is
one row lookup and one call on the raw values; an operand the common type
holds exactly is neither converted nor rounded.  ``value`` and ``numtype``
read their slot in C.

Numbers are immutable values; all operations are pure and thread-safe.
"""

from __future__ import annotations

import operator
from typing import Optional, Union

from .narrowing import (
    CheckedOverflowError,
    ConstraintError,
    F64,
    NumericTraits,
    NumType,
    TypeSpec,
    convert,
    deduced_type,
    numeric_type,
    supported_types,
)

__all__ = ["CheckedOverflowError", "Number", "common_type", "compare_lt"]


# --- common-type lattice -----------------------------------------------------

def common_type(a: Union[TypeSpec, NumericTraits], b: Union[TypeSpec, NumericTraits]) -> NumType:
    """The type mixed arithmetic on the two given types executes in.

    Deterministic, commutative, and frozen in each type's ``plans`` row when
    the types are registered.  Accepts types, names, or traits.
    """
    return _resolve(a).plans[_resolve(b)][0]


def _resolve(spec) -> NumType:
    if isinstance(spec, NumericTraits):
        for t in supported_types():
            if t.traits == spec:
                return t
        raise ConstraintError(f"no registered type has traits {spec}")
    return numeric_type(spec)


# --- the wrapper -------------------------------------------------------------

_new = object.__new__


def _as_number(value) -> Optional["Number"]:
    if isinstance(value, Number):
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return Number(value)


def _arithmetic(index: int):
    """The forward and reflected operator for the plan's ``index``th op."""

    def forward(self, other):
        if type(other) is not Number:
            other = _as_number(other)
            if other is None:
                return NotImplemented
        plan = self._type.plans[other._type]
        result = _new(Number)
        result._value = plan[index](self._value, other._value)
        result._type = plan[0]
        return result

    def reflected(self, other):
        other = _as_number(other)
        return NotImplemented if other is None else forward(other, self)

    return forward, reflected


def _comparison(op):
    """The comparison operator ``op``.  Python compares integers exactly
    whatever their signs, so only an operand that a float common type
    rounds changes first."""

    def compare(self, other):
        if type(other) is not Number:
            other = _as_number(other)
            if other is None:
                return NotImplemented
        _, _, _, _, _, round_a, round_b = self._type.plans[other._type]
        x, y = self._value, other._value
        if round_a is not None:
            x = round_a(x)
        if round_b is not None:
            y = round_b(y)
        return op(x, y)

    return compare


class Number:
    """A numeric value that refuses to be narrowed silently.

    ``Number(v)`` deduces the type from the bare value (integers follow the
    i32-then-i64 literal ladder, floats are f64); ``Number(v, "u32")``
    converts and raises ``NarrowError`` if the value would change.  There is
    no unchecked way in, for bare operands too.  Instances are immutable:
    ``assign`` checks a new value into the same type and returns a new Number.

    Arithmetic with other Numbers or bare numerics promotes into the common
    type (see ``common_type``).  Division follows the common type: truncated
    toward zero for integers, ordinary float division otherwise.
    """

    __slots__ = ("_type", "_value")

    def __init__(self, value, of: Optional[TypeSpec] = None):
        if of is None:  # only picks the target: the value is checked as below
            of = value._type if isinstance(value, Number) else deduced_type(value)
        target = of if type(of) is NumType else numeric_type(of)
        if type(value) is int and target.min is not None and target.min <= value <= target.max:
            self._value = value
        elif type(value) is float:
            self._value = F64.to[target](value)
        else:
            self._value = convert(value, target)
        self._type = target

    # read-only, with no Python frame: the getter is a C callable
    value = property(operator.attrgetter("_value"), doc="The wrapped value, unchanged.")
    numtype = property(operator.attrgetter("_type"), doc="The value's interned ``NumType``.")

    def assign(self, value) -> "Number":
        """Check ``value`` into this Number's type; the original is untouched."""
        return Number(value, self._type)

    def __repr__(self) -> str:
        return f"Number({self._value!r}, {self._type.name})"

    def __str__(self) -> str:
        return str(self._value)

    def __hash__(self):
        return hash(self._value)

    __add__, __radd__ = _arithmetic(1)
    __sub__, __rsub__ = _arithmetic(2)
    __mul__, __rmul__ = _arithmetic(3)
    __truediv__, __rtruediv__ = _arithmetic(4)

    __lt__ = _comparison(operator.lt)
    __gt__ = _comparison(operator.gt)
    __le__ = _comparison(operator.le)
    __ge__ = _comparison(operator.ge)
    __eq__ = _comparison(operator.eq)


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
    return Number.__lt__(a, b)
