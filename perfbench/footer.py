"""The batch footer every workload ends each batch with.

One footer per batch: its eight sample codes are written into a Span,
sorted in place and read back, sorted again through a LinkedList, the item
and refusal counts are checked into u16 and summed as Numbers, and the
result is rendered and packed at the ``BatchFooter`` layout.  It calls each
layer a few times, so every per-layer metric is measured on every workload,
while staying near 1% of a batch's time.
"""

from __future__ import annotations

import struct

import oracle
from records import FOOTER as RECORD

TEMPLATE = "batch {} items {} refused {} low {} high {} total {} ok {} sorted {}"
SAMPLE = 8
# (source type, target type) of the footer's narrowing calls, per batch
CONVERT_PAIRS = {("i32", "u16"): 2}
_OFFSETS, SIZE = oracle.c_layout(RECORD[1])
_FORMATS = ("<I", "<H", "<H", "<i", "<i")


def _pack(offsets, values) -> bytes:
    buf = bytearray(SIZE)
    for off, fmt, v in zip(offsets, _FORMATS, values):
        struct.pack_into(fmt, buf, off, v)
    return bytes(buf)


def checked(api, c, batch_id: int, items: int, refused: int, sample: list):
    n = api.convert(items, c.U16)
    bad = api.convert(refused, c.U16)
    total = api.add(api.number(n, c.U16), api.number(bad, c.U16))
    ok = api.le(api.number(bad, c.U16), total)
    w = api.span([0] * SAMPLE)
    for k in range(SAMPLE):
        api.set(w, k, sample[k])
    api.sort(w)
    low, high = api.get(w, 0), api.get(w, SAMPLE - 1)
    ll = api.linked(sample)
    api.sort(ll)
    ordered = api.drain(ll)
    offsets = [d.offset for d in api.layout_of(RECORD[0])]
    line = api.fmt(TEMPLATE, batch_id, n, bad, low, high, total, ok, ordered)
    return line, _pack(offsets, (batch_id, n, bad, low, high))


def twin(batch_id: int, items: int, refused: int, sample: list):
    if not (0 <= items <= 0xFFFF and 0 <= refused <= 0xFFFF):
        raise OverflowError("footer counts exceed u16")
    ordered = sorted(sample)
    low, high = ordered[0], ordered[-1]
    line = TEMPLATE.format(batch_id, items, refused, low, high, items + refused,
                           refused <= items + refused, ordered)
    return line, _pack(_OFFSETS, (batch_id, items, refused, low, high))
