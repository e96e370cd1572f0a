"""Time one fresh start of dedsums: the imports a workload needs before its first pass.

    python3 perfbench/setup_probe.py SRC_DIR WORKLOAD

Prints one JSON object.  ``setup_s`` is the seconds from just before the
first ``import dedsums`` until the first pass could start (for cli-sweep that
includes ``cli.build_parser()``); interpreter start-up is not included.
``probe_s`` is the mean of a pure-integer probe timed just before and just
after, and ``scaled_s`` is ``setup_s * NOMINAL_S / probe_s``: the set-up time
on a machine where the probe takes ``NOMINAL_S``.  The probe imports nothing,
so it leaves the imports being timed as they are.
"""

import json
import os
import sys
import time

# A fixed scale, not a measurement: a round figure of the order of the
# probe's time on the reference machine, where its run medians ranged from
# 3.2 to 4.7 ms.
NOMINAL_S = 0.005


def int_probe() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(1, 40000):
        acc += (i * 7919) % 1013
    return time.perf_counter() - t0


src, workload = sys.argv[1], sys.argv[2]
sys.path.insert(0, src)
before = int_probe()
t0 = time.perf_counter()
import dedsums  # noqa: E402

if workload == "cli-sweep":
    from dedsums import cli  # noqa: E402
    cli.build_parser()
elapsed = time.perf_counter() - t0
after = int_probe()
if not os.path.abspath(dedsums.__file__).startswith(os.path.abspath(src) + os.sep):
    sys.exit(f"setup_probe: dedsums imported from {dedsums.__file__}, not from {src}")
speed = (before + after) / 2
print(json.dumps({"setup_s": elapsed, "probe_s": speed, "scaled_s": elapsed * NOMINAL_S / speed}))
