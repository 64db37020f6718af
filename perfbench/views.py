"""Workload ``views``: one item is one window task.

A task builds a ``Span`` subrange of a backing store, reads through it at
seeded indices, writes through it, and sorts the window: in place through
the Span (the random-access path), or, for one task in four, through
a ``LinkedList`` copy (the forward path).  Backing stores are ``list``,
``array('i')``, ``bytearray``, ``Buffer`` and a Span nested in a Span.
Most indices are ``int``, some are ``Number``; about 1% are negative or
past the end and must raise ``NarrowError`` or ``RangeError``.  Window
sizes are log-uniform from 16 to 4096, one task per factor-of-four size
band in every batch, so both the fixed and the per-element cost of a call
show.  ``span`` and ``rangealg`` do most of the work and ``number`` almost
none; a fast path that helps reads and slows writes, or helps the in-place
sort and slows the forward one, shows up here.
"""

from __future__ import annotations

import math
from array import array

import footer
import oracle
import plain

ITEM = "one window task"
BANDS = ((16, 64), (64, 256), (256, 1024), (1024, 4096))
BATCH_ITEMS = len(BANDS)
BAD_INDEX_SHARE = 0.01
NUMBER_INDEX_SHARE = 0.05
KINDS = ("list", "array", "bytearray", "Buffer", "nested")


class Task:
    """Inputs and the oracle's expected outputs of one window task."""

    def __init__(self, rng, size: int, kind: str, forward: bool):
        self.size = size
        self.kind = kind
        self.forward = forward
        self.margin = rng.randint(0, 64)
        self.lo = rng.randint(0, self.margin)
        self.data = [rng.randrange(256) for _ in range(size + self.margin)]
        self.reads = [self._index(rng) for _ in range(max(1, size // 8))]
        self.writes = [(self._index(rng), rng.randrange(256)) for _ in range(max(1, size // 16))]
        # expected outcome: read sum, refusals, window after writes, sorted window
        window = self.data[self.lo:self.lo + size]
        total, refusals = 0, []
        for k, (i, _) in enumerate(self.reads):
            kind = _refusal(i, size)
            if kind:
                refusals.append(("read", k, kind))
            else:
                total += window[i]
        for k, ((i, _), v) in enumerate(self.writes):
            kind = _refusal(i, size)
            if kind:
                refusals.append(("write", k, kind))
            else:
                window[i] = v
        ordered = sorted(window)
        self.expected = (total, refusals, window if forward else ordered,
                         ordered if forward else None)

    def _index(self, rng):
        """(index, Number type name or None)."""
        r = rng.random()
        if r < BAD_INDEX_SHARE / 2:
            i = -rng.randint(1, self.size)
        elif r < BAD_INDEX_SHARE:
            i = self.size + rng.randint(0, 16)
        else:
            i = rng.randrange(self.size)
        if rng.random() < NUMBER_INDEX_SHARE:
            return i, rng.choice(("i32", "i64") if i < 0 else ("u16", "i32", "u32", "i64"))
        return i, None


def _refusal(i: int, size: int):
    return oracle.NARROW if i < 0 else oracle.RANGE if i >= size else None


class Batch:
    def __init__(self, batch_id: int, tasks: list, sample: list):
        self.id = batch_id
        self.tasks = tasks
        self.sample = sample
        self.n_items = len(tasks)
        self.refused = sum(len(t.expected[1]) for t in tasks)  # refused index operations
        self.ops = sum(len(t.reads) + len(t.writes) for t in tasks)
        self.convert_pairs = footer.CONVERT_PAIRS
        self.expected = [t.expected for t in tasks]


def generate(rng, n_batches: int):
    """Stratified over the pool, so every seed gets the same mix of sizes
    and paths.  Each batch sorts one task on the forward path, of a band
    taken in turn; within a band, the forward tasks and the in-place ones
    each get one size per quantile of the log-uniform law."""
    first_forward = rng.randrange(len(BANDS))
    forward_band = [(first_forward + b) % len(BANDS) for b in range(n_batches)]
    quantile = {}  # (band, batch) -> u in [0, 1)
    for k in range(len(BANDS)):
        for path in (True, False):
            group = [b for b in range(n_batches) if (forward_band[b] == k) == path]
            for rank, b in zip(rng.sample(range(len(group)), len(group)), group):
                quantile[k, b] = (rank + rng.random()) / len(group)
    batches = []
    for b in range(n_batches):
        kinds = rng.sample(KINDS, len(BANDS))
        tasks = []
        for k, ((lo, hi), kind) in enumerate(zip(BANDS, kinds)):
            size = min(hi - 1, int(lo * math.exp(quantile[k, b] * math.log(hi / lo))))
            tasks.append(Task(rng, size, kind, k == forward_band[b]))
        batches.append(Batch(b, tasks, [rng.randrange(256) for _ in range(footer.SAMPLE)]))
    return batches


def _store(c, kind: str, data: list):
    """(the store a window views, the sliceable sequence under it, offset)."""
    if kind == "list":
        store = list(data)
    elif kind == "array":
        store = array("i", data)
    elif kind == "bytearray":
        store = bytearray(data)
    elif kind == "Buffer":
        store = c.Buffer(int, max(c.Buffer.MIN_SIZE, 1 << (len(data) - 1).bit_length()))
        for i, v in enumerate(data):
            store[i] = v
    else:
        base = [0] * 8 + list(data) + [0] * 8
        return c.Span(base, 8, 8 + len(data)), base, 8
    return store, store, 0


def prepare(batches, c) -> None:
    """Build stores and Number indices once, outside the timed phase."""
    types = {t.name: t for t in c.supported_types()}
    for batch in batches:
        for t in batch.tasks:
            t.store, t.backing, t.offset = _store(c, t.kind, t.data)
            t.pristine = t.backing[:]
            t.checked_reads = [i if n is None else c.Number(i, types[n]) for i, n in t.reads]
            t.checked_writes = [(i if n is None else c.Number(i, types[n]), v)
                                for (i, n), v in t.writes]
            t.twin_store = list(t.data)


def run_checked(batch, api, c):
    get, put = api.get, api.set
    refusals = (c.NarrowError, c.RangeError)
    out = []
    for t in batch.tasks:
        try:
            w = api.span(t.store, t.lo, t.lo + t.size)
            total, refused = 0, []
            for k, i in enumerate(t.checked_reads):
                try:
                    total += get(w, i)
                except refusals as e:
                    refused.append(("read", k, type(e).__name__))
            for k, (i, v) in enumerate(t.checked_writes):
                try:
                    put(w, i, v)
                except refusals as e:
                    refused.append(("write", k, type(e).__name__))
            ordered = None
            if t.forward:
                ll = api.linked(w)
                api.sort(ll)
                ordered = api.drain(ll)
            else:
                api.sort(w)
            out.append((total, refused, _window(t), ordered))
        except Exception as e:  # an undocumented error is a failed operation
            out.append(("error", type(e).__name__, str(e)))
        _restore(t)
    tail = footer.checked(api, c, batch.id, batch.n_items, batch.refused, batch.sample)
    return out, tail


def _window(t) -> list:
    a = t.offset + t.lo
    return list(t.backing[a:a + t.size])


def _restore(t) -> None:
    a = t.offset + t.lo
    t.backing[a:a + t.size] = t.pristine[a:a + t.size]


def run_twin(batch):
    out = []
    for t in batch.tasks:
        buf, lo, n = t.twin_store, t.lo, t.size
        total, refused = 0, []
        for k, (i, _) in enumerate(t.reads):
            if i < 0:
                refused.append(("read", k, plain.NARROW))
            elif i >= n:
                refused.append(("read", k, plain.RANGE))
            else:
                total += buf[lo + i]
        for k, ((i, _), v) in enumerate(t.writes):
            if i < 0:
                refused.append(("write", k, plain.NARROW))
            elif i >= n:
                refused.append(("write", k, plain.RANGE))
            else:
                buf[lo + i] = v
        window = buf[lo:lo + n]
        if t.forward:
            out.append((total, refused, window, sorted(window)))
        else:
            window.sort()
            out.append((total, refused, window, None))
        buf[lo:lo + n] = t.data[lo:lo + n]
    return out, footer.twin(batch.id, batch.n_items, batch.refused, batch.sample)


def failures(batch, out) -> list:
    return [(i, g, w) for i, (g, w) in enumerate(zip(out[0], batch.expected)) if g != w]
