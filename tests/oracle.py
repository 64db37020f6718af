"""Independent oracles used only by the tests.

Nothing here calls into the library's conversion or layout paths: exact
representability is decided structurally from an exact rational view of the
value, arithmetic results are exact rationals rounded once, record layouts
come from ctypes (the host C layout engine), and the placeholder count is an
independent re-walk of the format-scanning rules.
"""

from __future__ import annotations

import ctypes
import math
from fractions import Fraction

# --- exact numeric representability ------------------------------------------

INT_RANGES = {
    "i8": (-(2**7), 2**7 - 1),
    "u8": (0, 2**8 - 1),
    "i16": (-(2**15), 2**15 - 1),
    "u16": (0, 2**16 - 1),
    "i32": (-(2**31), 2**31 - 1),
    "u32": (0, 2**32 - 1),
    "i64": (-(2**63), 2**63 - 1),
    "u64": (0, 2**64 - 1),
}

# name -> (precision digits, exponent of the least significant representable
# bit, largest finite value as an exact integer scaled pair (num, log2 den=0))
FLOAT_SPECS = {
    "f64": (53, -1074, (2**53 - 1) * 2**971),
    "f32": (24, -149, (2**24 - 1) * 2**104),
    "sf16": (8, -133, (2**8 - 1) * 2**120),
}


def representable(value, type_name: str) -> bool:
    """Exact membership of ``value`` in the named type's value set.

    ``value`` is an int or float (finite).  Decides structurally: integer
    targets need an integral value in range; float targets need a dyadic
    rational with few enough significant bits, a low bit no finer than the
    type resolves, and a magnitude no larger than the largest finite value.
    """
    if type_name in INT_RANGES:
        lo, hi = INT_RANGES[type_name]
        if isinstance(value, float):
            if not (math.isfinite(value) and value.is_integer()):
                return False
        return lo <= value <= hi
    digits, min_lsb_exp, max_finite = FLOAT_SPECS[type_name]
    if isinstance(value, float) and not math.isfinite(value):
        return False
    num, den = value.as_integer_ratio()
    if num == 0:
        return True
    den_exp = den.bit_length() - 1  # float denominators are powers of two
    magnitude = abs(num)
    trailing = (magnitude & -magnitude).bit_length() - 1
    significant = magnitude.bit_length() - trailing
    lsb_exp = trailing - den_exp
    if significant > digits or lsb_exp < min_lsb_exp:
        return False
    return magnitude <= max_finite * den


def roundtrip_preserves(value, type_name: str) -> bool:
    """Whether converting into the type and back preserves the exact value."""
    return representable(value, type_name)


def round_to_float_type(value, type_name: str) -> float:
    """``value`` rounded to nearest, ties to even, into the named float type.

    Exact rational arithmetic decides the rounding in one step, so no host
    float conversion is involved.  Rounding past the largest finite value
    gives an infinity of the value's sign; the sign of a zero is dropped,
    which no comparison observes.
    """
    digits, min_lsb_exp, max_finite = FLOAT_SPECS[type_name]
    x = Fraction(value)
    if x == 0:
        return 0.0
    magnitude = abs(x)
    exponent = magnitude.numerator.bit_length() - magnitude.denominator.bit_length()
    if Fraction(2) ** exponent > magnitude:
        exponent -= 1  # now 2**exponent <= magnitude < 2**(exponent + 1)
    quantum = Fraction(2) ** max(exponent - digits + 1, min_lsb_exp)
    rounded = round(magnitude / quantum) * quantum  # Fraction rounds half to even
    if rounded > max_finite:
        return math.inf if x > 0 else -math.inf
    return float(rounded if x > 0 else -rounded)


def compare(op, a, a_type: str, b, b_type: str) -> bool:
    """Expected ``Number(a, a_type) <op> Number(b, b_type)``.

    Two integers, or two floats, compare as their exact values (NaN keeps
    the host partial order).  An integer meets a float in the float's type:
    it is rounded there once, to nearest with ties to even, and the rounded
    value is compared.
    """
    a_float, b_float = a_type in FLOAT_SPECS, b_type in FLOAT_SPECS
    if a_float and not b_float:
        b = round_to_float_type(b, a_type)
    elif b_float and not a_float:
        a = round_to_float_type(a, b_type)
    return op(a, b)


def common(a_type: str, b_type: str) -> str:
    """The common type, re-derived from the tables above: floats beat
    integers and more digits beat fewer.  An unsigned integer has one digit
    more than the signed one of its size, so it wins between the two."""
    def rank(name):
        if name in FLOAT_SPECS:
            return (1, FLOAT_SPECS[name][0])
        return (0, INT_RANGES[name][1].bit_length())

    return max(a_type, b_type, key=rank)


def _trunc_div(x: int, y: int) -> int:
    q = abs(x) // abs(y)
    return q if (x < 0) == (y < 0) else -q


_EXACT_OPS = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "mul": lambda x, y: x * y,
    "div": lambda x, y: x / y,
}


def arith(op: str, a, a_type: str, b, b_type: str):
    """Expected ``Number(a, a_type) <op> Number(b, b_type)``, ``op`` one of
    add, sub, mul, div.

    Returns ``("ok", type name, value)`` or ``("refused", error name,
    reason)``.  An operand the common type cannot hold is refused first,
    then a zero divisor, then a result the common type cannot hold.
    Integer results are exact and division truncates toward zero.  A float
    result is the exact rational result rounded once into the common type;
    an operand that is NaN or an infinity follows IEEE arithmetic instead.
    The sign of a zero result is not modelled.
    """
    c = common(a_type, b_type)
    for v in (a, b):
        if not (isinstance(v, float) and not math.isfinite(v)) and not representable(v, c):
            return ("refused", "NarrowError", None)
    if op == "div" and b == 0:
        return ("refused", "CheckedOverflowError", "divide-by-zero")
    if c in INT_RANGES:
        r = _trunc_div(a, b) if op == "div" else _EXACT_OPS[op](a, b)
        lo, hi = INT_RANGES[c]
        if not lo <= r <= hi:
            return ("refused", "CheckedOverflowError", "result not representable")
        return ("ok", c, r)
    if not (math.isfinite(a) and math.isfinite(b)):
        return ("ok", c, _EXACT_OPS[op](float(a), float(b)))
    r = round_to_float_type(_EXACT_OPS[op](Fraction(a), Fraction(b)), c)
    if math.isinf(r):
        return ("refused", "CheckedOverflowError", "result not representable")
    return ("ok", c, r)


# --- record layout via the host C layout engine ------------------------------

class _OwnedText(ctypes.Structure):
    _fields_ = [
        ("ptr", ctypes.c_void_p),
        ("size", ctypes.c_uint64),
        ("capacity", ctypes.c_uint64),
    ]


CTYPES_OF = {
    "i8": ctypes.c_int8,
    "u8": ctypes.c_uint8,
    "i16": ctypes.c_int16,
    "u16": ctypes.c_uint16,
    "i32": ctypes.c_int32,
    "u32": ctypes.c_uint32,
    "i64": ctypes.c_int64,
    "u64": ctypes.c_uint64,
    "f32": ctypes.c_float,
    "f64": ctypes.c_double,
    "sf16": ctypes.c_uint16,
    "text": _OwnedText,
}


def ctypes_layout(fields):
    """(name, offset, size) per field plus total size, per the host compiler."""
    struct_type = type(
        "Probe",
        (ctypes.Structure,),
        {"_fields_": [(name, CTYPES_OF[prim]) for name, prim in fields]},
    )
    rows = [
        (name, getattr(struct_type, name).offset, getattr(struct_type, name).size)
        for name, _ in fields
    ]
    return rows, ctypes.sizeof(struct_type)


# --- formatter scanning rules, re-derived ------------------------------------

def placeholder_count(fmt: str) -> int:
    """Number of argument slots the scanner will consume in ``fmt``."""
    count = 0
    i = 0
    while i < len(fmt):
        if fmt[i] == "{":
            if i + 1 < len(fmt) and fmt[i + 1] == "}":
                count += 1
            i += 2
        else:
            i += 1
    return count


def placeholder_offsets(fmt: str) -> list:
    """Offset in ``fmt`` of each argument slot, in the order they are filled."""
    offsets = []
    i = 0
    while i < len(fmt):
        if fmt[i] == "{":
            if fmt[i + 1:i + 2] == "}":
                offsets.append(i)
            i += 2
        else:
            i += 1
    return offsets


def substitute(fmt: str, args) -> str:
    """Expected output of a successful scan, built independently."""
    out = []
    it = iter(args)
    i = 0
    while i < len(fmt):
        ch = fmt[i]
        if ch == "{":
            follower = fmt[i + 1] if i + 1 < len(fmt) else None
            if follower == "}":
                out.append(str(next(it)))
            else:
                out.append("{")
                if follower is not None:
                    out.append(follower)
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)
