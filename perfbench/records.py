"""Record types the workloads register, by workload.

Kept free of imports so the set-up probe can read it before it starts
timing ``import checked``.
"""

FOOTER = ("BatchFooter", (("batch", "u32"), ("items", "u16"), ("refused", "u16"),
                          ("low", "i32"), ("high", "i32")))
# One field of each width and kind, so some conversions skip the per-value
# test (same type or widening) and some run it.
INGEST_ROW = ("IngestRow", (("key", "u16"), ("count", "u32"), ("delta", "i16"),
                            ("flag", "i8"), ("total", "i64"), ("ratio", "f32"),
                            ("price", "f64"), ("weight", "sf16")))

RECORDS = {
    "ingest": (INGEST_ROW, FOOTER),
    "arith": (FOOTER,),
    "views": (FOOTER,),
}
