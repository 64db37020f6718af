"""Workload ``arith``: one item is one ``Number`` operation.

Operations are construct, ``assign``, add, sub, mul, div, ``<``, ``<=`` and
``==``.  Operand type pairs cover all 121 pairs, weighted three to one
toward mixed-sign integer pairs and mixed integer/float pairs.  About 1% of
the operations are refused by construction: values just past a type's
limits, results that overflow, and division by zero.  ``number`` (with the
``convert_to`` calls inside it) does nearly all the work; there is no span,
sort or format work apart from the batch footer, so a change to those
layers should not move this workload.
"""

from __future__ import annotations

import math

import footer
import oracle
import plain

ITEM = "one Number operation"
BATCH_ITEMS = 1024
REFUSE_SHARE = 0.01

_OPS = ("construct", "assign", "add", "sub", "mul", "div", "lt", "le", "eq")
_OP_WEIGHTS = (15, 10, 15, 10, 10, 10, 10, 10, 10)
_COMPARE = {"lt", "le", "eq"}


def _pair_weight(a: str, b: str) -> int:
    fa, fb = oracle.is_float(a), oracle.is_float(b)
    if fa != fb:
        return 3
    if not fa and oracle.TYPES[a][0] != oracle.TYPES[b][0]:
        return 3
    return 1


_PAIRS = [(a, b) for a in oracle.TYPES for b in oracle.TYPES]
_PAIR_WEIGHTS = [_pair_weight(a, b) for a, b in _PAIRS]


def _value(rng, t: str, small: bool):
    """A value of type ``t``: small magnitudes fit everywhere, the rest
    spread log-uniformly over the type's range."""
    if oracle.is_float(t):
        d = min(oracle.digits(t), 24 if small else 53)
        mant = rng.randrange(1, 1 << d)
        v = math.ldexp(mant, rng.randint(-12, 12) - d + (0 if small else rng.randint(0, 8)))
        return oracle.round_to(t, -v if rng.random() < 0.4 else v)
    lo, hi = oracle.limits(t)
    if small:
        return rng.randint(max(lo, -100), min(hi, 100))
    bits = rng.randint(1, hi.bit_length())
    v = rng.randrange(1 << (bits - 1), 1 << bits) if bits > 1 else rng.randint(0, 1)
    v = min(v, hi)
    return -v if lo < 0 and rng.random() < 0.5 else v


def _bare_value(rng, t: str):
    """A bare int or float that ``Number(v, t)`` accepts."""
    v = _value(rng, t, rng.random() < 0.5)
    if rng.random() < 0.25:  # the other Python kind, where it stays exact
        if isinstance(v, int) and abs(v) < 2 ** 53:
            v = float(v)
        elif isinstance(v, float) and v.is_integer():
            v = int(v)
    return v


def _refused_bare_value(rng, t: str):
    """A bare value just past what ``t`` represents."""
    if oracle.is_float(t):
        return 2 ** 53 + 1 if t == "f64" else rng.choice((1e39, 1.0 + 2.0 ** -30, 0.1))
    lo, hi = oracle.limits(t)
    # i64 + k still deduces to u64 and u64 - k to i32, so both narrow; past
    # that no type holds the value and the refusal would be a ConstraintError
    if t == "u64" or (t != "i64" and lo < 0 and rng.random() < 0.5):
        return lo - rng.randint(1, 50)
    return hi + rng.randint(1, 50)


def _extremes(t: str):
    if oracle.is_float(t):
        top = {"f32": oracle.round_f32(3.4028234663852886e38),
               "f64": 1.7976931348623157e308, "sf16": 255.0 * 2.0 ** 120}[t]
        return (-top, top)
    return oracle.limits(t)


def _operands(rng, op: str, ta: str, tb: str, refuse: bool):
    """Candidate operand values for a binary operation or comparison."""
    if not refuse:
        small = rng.random() < 0.5
        yield _value(rng, ta, small), _value(rng, tb, small)
    elif op == "div":
        yield _value(rng, ta, True), 0.0 if oracle.is_float(tb) else 0
    else:
        pairs = [(x, y) for x in _extremes(ta) for y in _extremes(tb)]
        rng.shuffle(pairs)
        yield from pairs


def _item(rng, op: str, refuse: bool):
    """One operation whose oracle outcome is refused exactly when asked."""
    while True:
        ta, tb = rng.choices(_PAIRS, _PAIR_WEIGHTS)[0]
        for _ in range(50):
            if op in ("construct", "assign"):
                v = _refused_bare_value(rng, tb) if refuse else _bare_value(rng, tb)
                want = oracle.construct(v, tb)
                if op == "construct":
                    args = (v, tb)
                else:
                    args = (tb, oracle.value_in(tb, _value(rng, tb, True)), v)
                if (want[0] == "refused") == refuse:
                    return op, args, want
                continue
            for va, vb in _operands(rng, op, ta, tb, refuse):
                va, vb = oracle.value_in(ta, va), oracle.value_in(tb, vb)
                check = oracle.compare if op in _COMPARE else oracle.arith
                want = check(op, ta, va, tb, vb)
                if (want[0] == "refused") == refuse:
                    return op, (ta, va, tb, vb), want


def generate(rng, n_batches: int):
    batches = []
    for b in range(n_batches):
        items = []
        for _ in range(BATCH_ITEMS):
            op = rng.choices(_OPS, _OP_WEIGHTS)[0]
            items.append(_item(rng, op, op not in _COMPARE and rng.random() < REFUSE_SHARE))
        sample = [rng.randrange(256) for _ in range(footer.SAMPLE)]
        batches.append(Batch(b, items, sample))
    return batches


class Batch:
    def __init__(self, batch_id: int, items: list, sample: list):
        self.id = batch_id
        self.items = items
        self.sample = sample
        self.n_items = self.ops = len(items)
        self.refused = sum(1 for _, _, w in items if w[0] == "refused")
        self.expected = [w for _, _, w in items]
        self.checked_args = None
        self.convert_pairs = footer.CONVERT_PAIRS


def prepare(batches, c) -> None:
    """Build the library operands once, outside the timed phase."""
    types = {t.name: t for t in c.supported_types()}
    for batch in batches:
        args = []
        for op, a, _ in batch.items:
            if op == "construct":
                args.append((op, a[0], types[a[1]]))
            elif op == "assign":
                args.append((op, c.Number(a[1], types[a[0]]), a[2]))
            else:
                args.append((op, c.Number(a[1], types[a[0]]), c.Number(a[3], types[a[2]])))
        batch.checked_args = args


def run_checked(batch, api, c):
    fns = {"construct": api.number, "assign": api.assign, "add": api.add,
           "sub": api.sub, "mul": api.mul, "div": api.div,
           "lt": api.lt, "le": api.le, "eq": api.eq}
    refusals = (c.NarrowError, c.CheckedOverflowError, c.ConstraintError)
    number = c.Number
    out = []
    for op, a, b in batch.checked_args:
        try:
            r = fns[op](a, b)
        except refusals as e:
            out.append(("refused", type(e).__name__))
            continue
        except Exception as e:  # an undocumented error is a failed operation
            out.append(("error", type(e).__name__, str(e)))
            continue
        out.append(("ok", r.numtype.name, r.value) if type(r) is number else ("ok", r))
    tail = footer.checked(api, c, batch.id, batch.n_items, batch.refused, batch.sample)
    return out, tail


def run_twin(batch):
    out = []
    for op, a, _ in batch.items:
        try:
            if op == "construct":
                r = plain.construct(a[0], a[1])
            elif op == "assign":
                r = plain.construct(a[2], a[0])
            elif op in _COMPARE:
                r = plain.compare(op, *a)
            else:
                r = plain.arith(op, *a)
        except plain.Refused as e:
            r = ("refused", e.kind)
        out.append(r)
    return out, footer.twin(batch.id, batch.n_items, batch.refused, batch.sample)


def _same(got, want) -> bool:
    return got == want and (len(want) < 3 or type(got[2]) is type(want[2]))


def failures(batch, out) -> list:
    """Items whose outcome disagrees with the oracle, with both outcomes."""
    got, _ = out
    return [(i, g, w) for i, (g, w) in enumerate(zip(got, batch.expected))
            if not _same(g, w)]
