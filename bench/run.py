"""meshpoly benchmark: one workload per run, outputs checked on every run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py for why each exists): membership, monotone,
search, cli.  Every workload is a closed loop with one caller in this
process; the cli workload starts one subprocess at a time.

--trace 0 sets up 5 to 25 times, for at least 2 s (a fresh import of
meshpoly plus input generation from the seed; setup_s is the median),
then runs operations for S seconds, or until a bounded corpus is used
up, and reports the end-to-end metrics: ops_per_s, op_p50_ms,
op_tail_ms (the workload's fixed tail percentile), setup_s and
peak_rss_mb.  Every time in them is scaled by the host's speed while it
was taken (pace.py): a reference kernel, interleaved with the
operations and run around each set-up, adds about a quarter to the
time a run takes, and times read as on a host where it takes 1 ms.
The unscaled figures are printed in the report.

--trace 1 runs the workload's fixed number of operations twice on the
same inputs, untraced and then traced, so that call counts repeat
exactly for a seed.  It reports the per-layer metrics of spans.py, the
tracing overhead (traced time / untraced time - 1) and source line
counts per module, and fails every operation whose traced output
differs from its untraced output.

Outside the timed region every output is checked by the workload's own
oracle, and for the default seed also against the digests frozen in
expected.json (freeze.py).  A digest mismatch proves at least one wrong
output in its segment and fails its first op() call unless the oracle
already flagged one there; a failed call fails every operation it
performed.  The human-readable report, including fail_share, goes to
stdout; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import pace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED = BENCH_DIR / "expected.json"

DEFAULT_SEED = 7
SETUP_REPEATS = 5  # at least, and on until SETUP_BUDGET_S has passed
SETUP_BUDGET_S = 2.0
SETUP_MAX_REPEATS = 25
MODULES = ("fixtures", "harness", "interlace", "intpoly", "operators", "poly",
           "roots", "serialize", "verify")
LOC_MODULES = ("__init__", "__main__", "cli", "fixtures", "harness",
               "interlace", "intpoly", "operators", "poly", "roots",
               "serialize", "suite", "verify")
FAILED = object()  # the output of an operation that raised


def fresh_import():
    """Import meshpoly afresh and return its modules by short name."""
    for name in [n for n in sys.modules
                 if n == "meshpoly" or n.startswith("meshpoly.")]:
        del sys.modules[name]
    importlib.import_module("meshpoly")
    return SimpleNamespace(**{m: importlib.import_module(f"meshpoly.{m}")
                              for m in MODULES})


def run_ops(wl, st, count, deadline=None, pacer=None):
    """Closed loop over operations 0..count-1; returns the outputs and
    the (start, end) of each op() call.  With a pacer the times are taken
    on its clock, and it samples the host's speed between calls; st.pacer
    lets an operation sample it between the steps of a call too."""
    limit = count if st.n_ops is None else min(count, st.n_ops)
    clock = time.perf_counter if pacer is None else pacer.now
    outs, spans = [], []
    reported = False
    st.pacer = pacer
    for i in range(limit):
        if deadline is not None and time.perf_counter() >= deadline:
            break
        start = clock()
        try:
            out = wl.op(st, i)
        except Exception:
            out = FAILED
            if not reported:
                traceback.print_exc(file=sys.stderr)
                reported = True
        spans.append((start, clock()))
        outs.append(out)
        if pacer is not None:
            pacer.tick()
    if pacer is not None:
        pacer.finish()
    st.pacer = None
    return outs, spans


def segment_digests(wl, outs, step):
    h = []
    for start in range(0, len(outs), step):
        d = hashlib.sha256()
        for out in outs[start:start + step]:
            data = wl.encode(out)
            d.update(b"%d:" % len(data) + data)
        h.append(d.hexdigest()[:16])
    return h


def evaluate(wl, st, outs, seed, expected=None):
    """Indices of failed operations: raised, refuted by the oracle, or
    (default seed) inside a segment whose frozen digest does not match."""
    failed = set()
    for i, out in enumerate(outs):
        try:
            ok = out is not FAILED and wl.check(st, i, out)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            failed.add(i)
    if seed != DEFAULT_SEED or expected is None:
        return failed
    frozen = expected[wl.name]
    step, total = frozen["step"], frozen["ops"]
    for k, digest in enumerate(frozen["digests"]):
        start, end = k * step, min((k + 1) * step, total)
        if end > len(outs):
            break
        if any(i in failed for i in range(start, end)):
            continue
        if segment_digests(wl, outs[start:end], step)[0] != digest:
            failed.add(start)
    return failed


def percentile(sorted_values, pct):
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def op_times(wl, outs, spans, pacer=None, scaled=True):
    """Per op() call: the times of the operations it performed, scaled by
    the host's speed (pace.py) unless scaled is false.  Without a pacer
    the workload's own scale() is used."""
    per_call = []
    for out, span in zip(outs, spans):
        subs = [span] if out is FAILED else wl.op_spans(out, span)
        if not scaled:
            per_call.append([end - start for start, end in subs])
        elif pacer is None:
            factor = 1.0 if out is FAILED else wl.scale(out)
            per_call.append([(end - start) * factor for start, end in subs])
        else:
            per_call.append([(end - start) * pacer.factor(start, end)
                             for start, end in subs])
    return per_call


def source_lines():
    pkg = SRC / "meshpoly"
    lines = {m: len((pkg / f"{m}.py").read_text(encoding="utf-8").splitlines())
             if (pkg / f"{m}.py").is_file() else 0 for m in LOC_MODULES}
    total = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in pkg.glob("*.py"))
    return lines, total


def load_expected():
    if not EXPECTED.is_file():
        return None
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def latency_metrics(wl, per_call):
    """Throughput, p50 and tail latency from op_times()."""
    ordered = sorted(t for ts in per_call for t in ts)
    tail, beyond = percentile(ordered, wl.tail_pct)
    return (len(ordered) / sum(ordered), percentile(ordered, 50)[0] * 1e3,
            tail * 1e3, beyond)


def timed_run(wl, seed, seconds, workdir):
    setups, raw_setups = [], []
    while len(setups) < SETUP_MAX_REPEATS and (
            len(setups) < SETUP_REPEATS or sum(raw_setups) < SETUP_BUDGET_S):
        st, scaled, raw = pace.scaled_call(
            lambda: wl.setup(fresh_import(), seed, workdir))
        setups.append(scaled)
        raw_setups.append(raw)
    gc.collect()
    pacer = None if wl.self_paced else pace.Pacer()
    start = time.perf_counter()
    outs, spans = run_ops(wl, st, sys.maxsize, deadline=start + seconds,
                          pacer=pacer)
    elapsed = time.perf_counter() - start
    rss = wl.peak_rss_mb(st)
    check_start = time.perf_counter()
    failed = evaluate(wl, st, outs, seed, load_expected())
    check_s = time.perf_counter() - check_start
    times = op_times(wl, outs, spans, pacer)
    raw = op_times(wl, outs, spans, scaled=False)
    rate, p50, tail, beyond = latency_metrics(wl, times)
    raw_rate, raw_p50, raw_tail, _ = latency_metrics(wl, raw)
    attempted, failed_ops = tally(times, failed)
    metrics = {
        "ops_per_s": (rate, "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_tail_ms": (tail, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    notes = [f"{attempted} ops in {len(outs)} calls in {elapsed:.3f} s, "
             f"checked in {check_s:.3f} s",
             f"op_tail_ms is p{wl.tail_pct}: {attempted} samples, "
             f"{beyond} beyond it",
             f"unscaled: ops_per_s {raw_rate:.6g}, op_p50_ms {raw_p50:.6g}, "
             f"op_tail_ms {raw_tail:.6g}, setup_s {statistics.median(raw_setups):.6g}",
             "host speed against the nominal one: "
             f"{sum(map(sum, times)) / sum(map(sum, raw)):.4f}",
             "setup_s runs: " + ", ".join(f"{s:.4f}" for s in setups)]
    return (attempted, failed_ops), metrics, notes


def tally(per_call, failed_calls):
    """Operations attempted and failed; a failed call fails all its ops."""
    return (sum(len(ts) for ts in per_call),
            sum(len(per_call[i]) for i in failed_calls))


def traced_run(wl, seed, workdir):
    from spans import Tracer, layer_metrics
    from workloads import CLI_SUBCOMMANDS

    st = wl.setup(fresh_import(), seed, workdir)
    gc.collect()
    pacer_a = None if wl.self_paced else pace.Pacer()
    outs_a, spans_a = run_ops(wl, st, wl.trace_ops, pacer=pacer_a)
    tracer = Tracer()
    st.tracer = tracer
    tracer.install()
    try:
        pacer_b = None if wl.self_paced else pace.Pacer()
        outs_b, spans_b = run_ops(wl, st, wl.trace_ops, pacer=pacer_b)
    finally:
        tracer.uninstall()
        st.tracer = None
    expected = load_expected()
    failed = evaluate(wl, st, outs_a, seed, expected)
    failed |= evaluate(wl, st, outs_b, seed, expected)
    # tracing must never change an output
    failed |= {i for i, (a, b) in enumerate(zip(outs_a, outs_b))
               if a is FAILED or b is FAILED or wl.encode(a) != wl.encode(b)}
    metrics = layer_metrics(tracer)
    metrics["serialize.bytes_out"] = (
        sum(wl.bytes_out(o) for o in outs_b if o is not FAILED), "bytes")
    # per cli call; zero on the in-process workloads
    import_s = getattr(st, "import_s", [])
    metrics["cli.import_s"] = (statistics.median(import_s) if import_s else 0.0, "s")
    main_self_s = getattr(st, "main_self_s", {})
    for sub in CLI_SUBCOMMANDS:
        values = main_self_s.get(sub)
        metrics[f"cli.main.{sub}.self_s"] = (
            statistics.median(values) if values else 0.0, "s")
    # both phases scaled by the host's speed, which drifts between them;
    # unscaled for the cli workload, whose traced calls do not sample it
    time_a, time_b = (
        sum(map(sum, op_times(wl, outs, spans, pacer, scaled=not wl.self_paced)))
        for outs, spans, pacer in ((outs_a, spans_a, pacer_a),
                                   (outs_b, spans_b, pacer_b)))
    overhead = time_b / time_a - 1 if outs_a else 0.0
    metrics["trace.overhead_share"] = (overhead, "share")
    lines, total = source_lines()
    for module, n in lines.items():
        metrics[f"loc.{module}"] = (n, "lines")
    metrics["loc.total"] = (total, "lines")
    notes = [f"{len(outs_b)} calls traced, {len(outs_a)} untraced on the same inputs",
             f"untraced {time_a:.3f} s, traced {time_b:.3f} s"]
    return tally(op_times(wl, outs_b, spans_b, scaled=False), failed), metrics, notes


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "meshpoly" / "__init__.py").is_file():
        print(f"error: no meshpoly sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    workdir = tempfile.mkdtemp(prefix=".bench_tmp_", dir=ROOT)
    try:
        if args.trace:
            (attempted, failed), metrics, notes = traced_run(wl, args.seed, workdir)
        else:
            (attempted, failed), metrics, notes = timed_run(wl, args.seed,
                                                            args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"workload {wl.name}, seed {args.seed}, trace {args.trace}: "
          "closed loop, one caller")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    print(f"  {'fail_share':34s} {failed / max(attempted, 1):.6g} "
          f"({failed} of {attempted})")
    for note in notes:
        print(f"  {note}")
    if not args.trace:
        lines, total = source_lines()
        print("  source lines: " + ", ".join(f"{m} {n}" for m, n in lines.items())
              + f"; total {total}")
    print(json.dumps({
        "correct": not failed and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
