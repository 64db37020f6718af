"""Expected outcomes of library operations, derived without the library.

Everything here follows the documented rules, not the library's code:

* integer limits come from the bit widths;
* f32 rounding is a ``struct`` round trip, sf16 (8 significant bits, f32
  exponent range) rounds the f64 value to its quantum with ties to even;
* a conversion succeeds exactly when the target represents the value;
* the common-type lattice is: floats beat integers, more digits beat
  fewer, and between equal-size integers of differing signedness the
  unsigned type wins;
* integer comparisons are exact; a comparison involving a float happens in
  the float common type with its rounding;
* integer arithmetic is exact or refused, division truncates toward zero;
  a float result that is not finite although its operands are, and any
  division by zero, is an overflow refusal.

Outcomes are tuples: ``("ok", type_name, value)`` for a Number result,
``("ok", bool)`` for a comparison, ``("refused", error_name)`` otherwise.
"""

from __future__ import annotations

import math
import struct

CONSTRAINT = "ConstraintError"
NARROW = "NarrowError"
OVERFLOW = "CheckedOverflowError"
RANGE = "RangeError"

# name -> (kind, bits); kind is "s", "u" or "f".
TYPES = {
    "i8": ("s", 8), "u8": ("u", 8), "i16": ("s", 16), "u16": ("u", 16),
    "i32": ("s", 32), "u32": ("u", 32), "i64": ("s", 64), "u64": ("u", 64),
    "f32": ("f", 32), "f64": ("f", 64), "sf16": ("f", 16),
}
INT_NAMES = tuple(n for n, (k, _) in TYPES.items() if k != "f")
FLOAT_NAMES = tuple(n for n, (k, _) in TYPES.items() if k == "f")
_FLOAT_DIGITS = {"f32": 24, "f64": 53, "sf16": 8}


def limits(name: str) -> tuple[int, int]:
    kind, bits = TYPES[name]
    if kind == "s":
        return -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    return 0, (1 << bits) - 1


def digits(name: str) -> int:
    kind, bits = TYPES[name]
    if kind == "f":
        return _FLOAT_DIGITS[name]
    return bits - 1 if kind == "s" else bits


def is_float(name: str) -> bool:
    return TYPES[name][0] == "f"


_F32 = struct.Struct("<f")
_SF16_MAX = 255.0 * 2.0 ** 120


def _to_f64(x) -> float:
    try:
        return float(x)
    except OverflowError:
        return math.copysign(math.inf, x)


def round_f32(x) -> float:
    d = _to_f64(x)
    try:
        return _F32.unpack(_F32.pack(d))[0]
    except OverflowError:
        return math.copysign(math.inf, d)


def round_sf16(x) -> float:
    d = _to_f64(x)
    if d == 0.0 or not math.isfinite(d):
        return d
    _, e = math.frexp(d)
    quantum = math.ldexp(1.0, max(e - 8, -133))
    r = round(d / quantum) * quantum
    return math.copysign(math.inf, d) if abs(r) > _SF16_MAX else r


_ROUND = {"f32": round_f32, "f64": _to_f64, "sf16": round_sf16}


def round_to(name: str, x) -> float:
    return _ROUND[name](x)


def deduce(value) -> str:
    """Type a bare Python value stands for: i32, i64, u64 ladder, or f64."""
    if isinstance(value, float):
        return "f64"
    for name in ("i32", "i64", "u64"):
        lo, hi = limits(name)
        if lo <= value <= hi:
            return name
    raise ValueError(f"no supported type holds {value}")


def fits(value, name: str) -> bool:
    """Does ``name`` represent ``value`` exactly?"""
    if is_float(name):
        return round_to(name, value) == value
    if isinstance(value, float) and not (math.isfinite(value) and value.is_integer()):
        return False
    lo, hi = limits(name)
    return lo <= value <= hi


def common(a: str, b: str) -> str:
    if a == b:
        return a
    fa, fb = is_float(a), is_float(b)
    if fa != fb:
        return a if fa else b
    if not fa and TYPES[a][1] == TYPES[b][1]:
        return a if TYPES[a][0] == "u" else b
    return a if digits(a) > digits(b) else b


def value_in(name: str, value):
    """The value ``name`` holds after an exact conversion of ``value``."""
    return float(value) if is_float(name) else int(value)


def construct(value, name: str):
    """Outcome of ``Number(value, name)`` for a bare int or float."""
    if isinstance(value, int) and not limits("i64")[0] <= value <= limits("u64")[1]:
        return ("refused", CONSTRAINT)
    if not fits(value, name):
        return ("refused", NARROW)
    return ("ok", name, value_in(name, value))


def _trunc_div(x: int, y: int) -> int:
    q = abs(x) // abs(y)
    return q if (x < 0) == (y < 0) else -q


def arith(op: str, ta: str, va, tb: str, vb):
    """Outcome of ``Number(va, ta) <op> Number(vb, tb)``."""
    c = common(ta, tb)
    if not (fits(va, c) and fits(vb, c)):
        return ("refused", NARROW)
    x, y = value_in(c, va), value_in(c, vb)
    if op == "div" and y == 0:
        return ("refused", OVERFLOW)
    if op == "div":
        exact = x / y if is_float(c) else _trunc_div(x, y)
    else:
        exact = {"add": x + y, "sub": x - y, "mul": x * y}[op]
    if is_float(c):
        r = round_to(c, exact)
        if not math.isfinite(r):
            return ("refused", OVERFLOW)
        return ("ok", c, r)
    r = exact
    lo, hi = limits(c)
    if not lo <= r <= hi:
        return ("refused", OVERFLOW)
    return ("ok", c, r)


def compare(op: str, ta: str, va, tb: str, vb):
    """Outcome of ``Number(va, ta) <op> Number(vb, tb)`` for lt, le, eq."""
    if is_float(ta) or is_float(tb):
        c = common(ta, tb)
        va, vb = round_to(c, va), round_to(c, vb)
    if op == "lt":
        return ("ok", va < vb)
    if op == "le":
        return ("ok", va <= vb)
    return ("ok", va == vb)


# --- record layout: natural alignment, padded to the strictest member ------

_FIELD_SIZE = {name: bits // 8 for name, (_, bits) in TYPES.items()}


def c_layout(fields) -> tuple[list[int], int]:
    """Byte offsets of ``(name, type)`` fields and the padded record size."""
    offsets, offset, align = [], 0, 1
    for _, t in fields:
        size = _FIELD_SIZE[t]
        offset = (offset + size - 1) // size * size
        offsets.append(offset)
        offset += size
        align = max(align, size)
    return offsets, (offset + align - 1) // align * align
