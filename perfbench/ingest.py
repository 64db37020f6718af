"""Workload ``ingest``: one item is one text row.

Each row is parsed, each field is checked with ``convert`` into the
``IngestRow`` field types, accepted rows update per-key running totals
held in ``Number``, are packed at the ``layout_of`` offsets and rendered as
one ``format_render`` line; refused rows are rendered as a refusal line.
At the end of the batch the ``total`` column is sorted in windows of 16
through ``Span``.  About one row in ten carries a value that must be
refused.  This is the only workload that chains all six layers, and
``narrowing``, ``number`` and ``printfmt`` do most of its work.
"""

from __future__ import annotations

import math
import struct

import footer
import oracle
from records import INGEST_ROW

ITEM = "one text row"
BATCH_ITEMS = 64
BAD_ROWS = 6  # per batch, so about one row in ten is refused
WINDOW = 16
KEYS = 48

ROW_NAME, FIELDS = INGEST_ROW
FIELD_NAMES = tuple(f for f, _ in FIELDS)
FIELD_TYPES = tuple(t for _, t in FIELDS)
ROW_TEMPLATE = "{} key={} count={} delta={} price={} weight={} sum_count={} sum_delta={} sum_price={}"
REFUSED_TEMPLATE = "{} refused {}={}"
_OFFSETS, ROW_SIZE = oracle.c_layout(FIELDS)

_F32 = struct.Struct("<f")
_U32 = struct.Struct("<I")
_PACK = {"u16": "<H", "u32": "<I", "i16": "<h", "i8": "<b", "i64": "<q",
         "f32": "<f", "f64": "<d"}
_FORMATS = tuple(_PACK.get(t, "<H") for t in FIELD_TYPES)  # sf16: its 16 bits
_SF16_FIELD = FIELD_TYPES.index("sf16")


def parse(line: str) -> list:
    p = line.split(",")
    return [int(p[0]), int(p[1]), int(p[2]), int(p[3]), int(p[4]),
            float(p[5]), float(p[6]), float(p[7])]


def pack_row(buf: bytearray, base: int, offsets, values) -> None:
    for k, (off, fmt, v) in enumerate(zip(offsets, _FORMATS, values)):
        if k == _SF16_FIELD:  # the upper half of the f32 bits
            v = _U32.unpack(_F32.pack(v))[0] >> 16
        struct.pack_into(fmt, buf, base + off, v)


# --- inputs -----------------------------------------------------------------

def _log_int(rng, hi: int) -> int:
    bits = rng.randint(1, hi.bit_length())
    return min(hi, rng.randrange(1 << (bits - 1), 1 << bits))


def _exact_float(rng, digits: int, spread: int) -> float:
    v = math.ldexp(rng.randrange(1, 1 << digits), rng.randint(-spread, spread) - digits)
    return -v if rng.random() < 0.3 else v


def _good_row(rng, key: int) -> list:
    total = _log_int(rng, oracle.limits("i64")[1])
    return [key, _log_int(rng, oracle.limits("u32")[1]), rng.randint(-32768, 32767),
            rng.randint(-128, 127), -total if rng.random() < 0.4 else total,
            _exact_float(rng, 24, 8), round(rng.uniform(0, 10000), 2),
            _exact_float(rng, 8, 8)]


def _spoil(rng, row: list) -> None:
    """Make one field of ``row`` a value its type cannot hold."""
    k = rng.choice((0, 1, 2, 3, 4, 5, 7))
    t = FIELD_TYPES[k]
    if oracle.is_float(t):
        row[k] = rng.choice((0.1, 1e39, 1.0 + 2.0 ** -30)) if t == "f32" else \
            rng.choice((0.1, 1e39, 1.0 + 2.0 ** -9, 257.0))
        return
    lo, hi = oracle.limits(t)
    below = t != "i64" and rng.random() < 0.5
    row[k] = lo - rng.randint(1, 1000) if below else hi + rng.randint(1, 1000)


def expected_outcome(values) -> tuple:
    for k, (v, t) in enumerate(zip(values, FIELD_TYPES)):
        if not oracle.fits(v, t):
            return ("refused", k)
    return ("ok",)


class Batch:
    def __init__(self, batch_id: int, lines: list, expected: list, pairs: dict, sample):
        self.id = batch_id
        self.lines = lines
        self.expected = expected
        self.convert_pairs = pairs
        self.sample = sample
        self.n_items = self.ops = len(lines)
        self.refused = sum(1 for e in expected if e[0] == "refused")


def generate(rng, n_batches: int):
    keys = rng.sample(range(1 << 16), KEYS)
    batches = []
    for b in range(n_batches):
        bad = set(rng.sample(range(BATCH_ITEMS), BAD_ROWS))
        lines, expected = [], []
        pairs = dict(footer.CONVERT_PAIRS)
        for i in range(BATCH_ITEMS):
            row = _good_row(rng, rng.choice(keys))
            if i in bad:
                _spoil(rng, row)
            outcome = expected_outcome(row)
            if (outcome[0] == "refused") != (i in bad):
                raise RuntimeError(f"row {row} does not have the intended outcome")
            for v, t in zip(row, FIELD_TYPES):
                pair = (oracle.deduce(v), t)
                pairs[pair] = pairs.get(pair, 0) + 1
            lines.append(",".join(map(str, row)))
            expected.append(outcome)
        sample = [rng.randrange(256) for _ in range(footer.SAMPLE)]
        batches.append(Batch(b, lines, expected, pairs, sample))
    return batches


def prepare(batches, c) -> None:
    """Resolve the field types and zero totals once, outside the timed phase."""
    types = tuple(c.numeric_type(t) for t in FIELD_TYPES)
    zeros = (c.Number(0, c.U64), c.Number(0, c.I64), c.Number(0.0, c.F64))
    for batch in batches:
        batch.types, batch.zeros = types, zeros


# --- the checked pipeline and its twin ---------------------------------------

def run_checked(batch, api, c):
    convert, number, add, fmt = api.convert, api.number, api.add, api.fmt
    types = batch.types
    u32, i16, f64 = types[1], types[2], types[6]
    narrow = c.NarrowError
    zeros = batch.zeros
    totals = {}
    outcomes, report, col = [], [], []
    buf = bytearray(ROW_SIZE * batch.n_items)
    packed = 0
    for row_no, line in enumerate(batch.lines):
        try:
            values = parse(line)
            bad = None
            conv = []
            for k in range(8):
                try:
                    conv.append(convert(values[k], types[k]))
                except narrow:
                    conv.append(None)
                    if bad is None:
                        bad = k
            if bad is not None:
                report.append(fmt(REFUSED_TEMPLATE, row_no, FIELD_NAMES[bad],
                                  line.split(",")[bad]))
                outcomes.append(("refused", bad))
                continue
            key = conv[0]
            tc, td, tp = totals.get(key) or zeros
            tc = add(tc, number(conv[1], u32))
            td = add(td, number(conv[2], i16))
            tp = add(tp, number(conv[6], f64))
            totals[key] = (tc, td, tp)
            offsets = [d.offset for d in api.layout_of(ROW_NAME)]
            pack_row(buf, packed * ROW_SIZE, offsets, conv)
            packed += 1
            col.append(conv[4])
            report.append(fmt(ROW_TEMPLATE, row_no, key, conv[1], conv[2], conv[6], conv[7],
                              tc, td, tp))
            outcomes.append(("ok",))
        except Exception as e:  # an undocumented error is a failed operation
            outcomes.append(("error", type(e).__name__, str(e)))
    for lo in range(0, len(col), WINDOW):
        api.sort(api.span(col, lo, min(lo + WINDOW, len(col))))
    tail = footer.checked(api, c, batch.id, batch.n_items, batch.refused, batch.sample)
    return outcomes, "\n".join(report), bytes(buf[:packed * ROW_SIZE]), col, tail


_U64_MAX = oracle.limits("u64")[1]
_I64_MIN, _I64_MAX = oracle.limits("i64")
# per field: (lo, hi) for integers, a rounding function for f32/sf16, None for f64
_CHECKS = tuple(oracle.limits(t) if not oracle.is_float(t) else
                (None if t == "f64" else (lambda x, _t=t: oracle.round_to(_t, x)))
                for t in FIELD_TYPES)


def run_twin(batch):
    checks = _CHECKS
    totals = {}
    outcomes, report, col = [], [], []
    buf = bytearray(ROW_SIZE * batch.n_items)
    packed = 0
    for row_no, line in enumerate(batch.lines):
        values = parse(line)
        bad = None
        for k in range(8):
            check, v = checks[k], values[k]
            if check is None:
                continue
            if type(check) is tuple:
                if v < check[0] or v > check[1]:
                    bad = k
                    break
            elif check(v) != v:
                bad = k
                break
        if bad is not None:
            report.append(REFUSED_TEMPLATE.format(row_no, FIELD_NAMES[bad], line.split(",")[bad]))
            outcomes.append(("refused", bad))
            continue
        key = values[0]
        tc, td, tp = totals.get(key) or (0, 0, 0.0)
        tc += values[1]
        td += values[2]
        tp += values[6]
        if tc > _U64_MAX or not _I64_MIN <= td <= _I64_MAX or not math.isfinite(tp):
            raise OverflowError(f"running totals of key {key} overflow")
        totals[key] = (tc, td, tp)
        pack_row(buf, packed * ROW_SIZE, _OFFSETS, values)
        packed += 1
        col.append(values[4])
        report.append(ROW_TEMPLATE.format(row_no, key, values[1], values[2], values[6],
                                          values[7], tc, td, tp))
        outcomes.append(("ok",))
    for lo in range(0, len(col), WINDOW):
        col[lo:lo + WINDOW] = sorted(col[lo:lo + WINDOW])
    tail = footer.twin(batch.id, batch.n_items, batch.refused, batch.sample)
    return outcomes, "\n".join(report), bytes(buf[:packed * ROW_SIZE]), col, tail


def failures(batch, out) -> list:
    return [(i, g, w) for i, (g, w) in enumerate(zip(out[0], batch.expected)) if g != w]
