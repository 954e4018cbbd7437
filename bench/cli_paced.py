"""`python -m meshpoly` that samples the host's speed around the call.

    python3 bench/cli_paced.py SIDECAR.json <meshpoly arguments...>

Runs a reference kernel for about REF_S before meshpoly is imported and
again after the call returns, in this process and so on the vCPU the
call ran on, then writes {"scale": x, "ref_s": s, "peak_rss_kb": kB} to
SIDECAR.json: the factor that makes the call's time read as on a host
where one kernel run takes NOMINAL_S (see pace.py), the wall time the
samples took, and the peak resident size of this process since its exec
(VmHWM), which unlike ru_maxrss leaves out the pages of the parent it
was forked from.  Otherwise it behaves as `python -m meshpoly`: the
working directory first on sys.path, and the same stdout, stderr and
exit code.

The kernel uses only machine integers and modules that every Python
process has loaded at start-up, so sampling before the call does not
speed up meshpoly's import.  Measured on repeated calls of the same two
subcommands, this bracket kept the quartile distance of 20 scaled
6-call totals at 0.08 of their median (0.21 unscaled, 0.18 with a
Fraction kernel sampled after the call only).
"""

import os
import sys
import time
from math import gcd

NOMINAL_S = 1e-3
REF_S = 0.02


def kernel():
    num, den = 0, 1
    for j in range(1, 150):
        d = j * j
        num, den = num * d + den, den * d
        g = gcd(num, den)
        num, den = num // g, den // g
    acc = 0
    for j in range(5000):
        acc = (acc * 31 + j) % 1000003
    return num, den, acc


def sample(budget_s: float) -> float:
    """Mean kernel time over about budget_s, at least 10 runs."""
    clock = time.perf_counter
    spent, runs = 0.0, 0
    while runs < 10 or spent < budget_s:
        start = clock()
        kernel()
        spent += clock() - start
        runs += 1
    return spent / runs


def paced(sidecar: str, argv: list):
    start = time.perf_counter()
    before = sample(REF_S)
    ref_s = time.perf_counter() - start
    sys.path[0] = os.getcwd()
    sys.argv = [sys.argv[0], *argv]
    import runpy
    try:
        runpy.run_module("meshpoly", run_name="__main__", alter_sys=True)
    finally:
        start = time.perf_counter()
        after = sample(REF_S)
        ref_s += time.perf_counter() - start
        import json
        with open(sidecar, "w", encoding="utf-8") as f:
            json.dump({"scale": 2 * NOMINAL_S / (before + after), "ref_s": ref_s,
                       "peak_rss_kb": peak_rss_kb()}, f)


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


if __name__ == "__main__":
    paced(sys.argv[1], sys.argv[2:])
