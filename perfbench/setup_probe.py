"""Set-up time of one workload, measured in a fresh interpreter.

Usage: python3 setup_probe.py SRC_DIR WORKLOAD

Prints one JSON object: ``setup_s``, the time for ``import checked`` plus
the workload's ``register_record`` calls, and ``register_s``, the
registration part alone.
"""

import json
import sys
import time

import records

src, workload = sys.argv[1], sys.argv[2]
sys.path.insert(0, src)
fields = records.RECORDS[workload]
t0 = time.perf_counter()
import checked  # noqa: E402

t1 = time.perf_counter()
for name, spec in fields:
    checked.register_record(name, spec)
t2 = time.perf_counter()
print(json.dumps({"setup_s": t2 - t0, "register_s": t2 - t1}))
