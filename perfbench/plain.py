"""Plain-Python stand-ins for the library calls, used by the twins.

Range checks are written out inline over precomputed per-type tables, the
way a careful caller would write them without the library.  A refusal
raises ``Refused`` carrying the name of the error the library documents
for that case, so twin and library outcomes compare as equal tuples.
"""

from __future__ import annotations

import math

import oracle


class Refused(Exception):
    def __init__(self, kind: str) -> None:
        self.kind = kind


NARROW = oracle.NARROW
OVERFLOW = oracle.OVERFLOW
RANGE = oracle.RANGE

# name -> (lo, hi) for integers, name -> rounding function for floats
INT_RANGE = {n: oracle.limits(n) for n in oracle.INT_NAMES}
FLOAT_ROUND = {n: (lambda x, _n=n: oracle.round_to(_n, x)) for n in oracle.FLOAT_NAMES}
FLOAT_ROUND["f64"] = float

# (a, b) -> (common name, lo, hi, rounding function or None)
COMMON = {}
for _a in oracle.TYPES:
    for _b in oracle.TYPES:
        _c = oracle.common(_a, _b)
        _lo, _hi = INT_RANGE.get(_c, (None, None))
        COMMON[_a, _b] = (_c, _lo, _hi, FLOAT_ROUND.get(_c))


def convert(value, target: str):
    """``value`` unchanged in ``target``, or ``Refused(NARROW)``."""
    rnd = FLOAT_ROUND.get(target)
    if rnd is None:
        lo, hi = INT_RANGE[target]
        if type(value) is float:
            if not (math.isfinite(value) and value.is_integer()):
                raise Refused(NARROW)
            value = int(value)
        if value < lo or value > hi:
            raise Refused(NARROW)
        return value
    if rnd(value) != value:
        raise Refused(NARROW)
    return float(value)


_DEDUCIBLE = (oracle.limits("i64")[0], oracle.limits("u64")[1])


def construct(value, target: str):
    if type(value) is int and not _DEDUCIBLE[0] <= value <= _DEDUCIBLE[1]:
        raise Refused(oracle.CONSTRAINT)
    return ("ok", target, convert(value, target))


def arith(op: str, ta: str, va, tb: str, vb):
    c, lo, hi, rnd = COMMON[ta, tb]
    if rnd is None:
        if va < lo or va > hi or vb < lo or vb > hi:
            raise Refused(NARROW)
        if op == "add":
            r = va + vb
        elif op == "sub":
            r = va - vb
        elif op == "mul":
            r = va * vb
        else:
            if vb == 0:
                raise Refused(OVERFLOW)
            r = abs(va) // abs(vb)
            if (va < 0) != (vb < 0):
                r = -r
        if r < lo or r > hi:
            raise Refused(OVERFLOW)
        return ("ok", c, r)
    x, y = rnd(va), rnd(vb)
    if x != va or y != vb:
        raise Refused(NARROW)
    if op == "add":
        r = rnd(x + y)
    elif op == "sub":
        r = rnd(x - y)
    elif op == "mul":
        r = rnd(x * y)
    else:
        if y == 0.0:
            raise Refused(OVERFLOW)
        r = rnd(x / y)
    if not math.isfinite(r):
        raise Refused(OVERFLOW)
    return ("ok", c, r)


def compare(op: str, ta: str, va, tb: str, vb):
    rnd = COMMON[ta, tb][3]
    if rnd is not None:
        va, vb = rnd(va), rnd(vb)
    if op == "lt":
        return ("ok", va < vb)
    if op == "le":
        return ("ok", va <= vb)
    return ("ok", va == vb)

