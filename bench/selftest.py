"""Show that a corrupted output is counted as a failure.

    python3 bench/selftest.py

For every workload, runs one digest segment of operations at the
default seed and expects no failure; then corrupts the first output and
expects exactly that operation to fail.  At another seed, where no
digest exists, it corrupts every output and expects the workload's own
oracle to reject at least one.  Exits 1 if any expectation is not met.
"""

import sys
import tempfile

import run
from workloads import WORKLOADS

OTHER_SEED = run.DEFAULT_SEED + 1


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    expected = run.load_expected()
    ok = True
    for wl in WORKLOADS.values():
        for seed in (run.DEFAULT_SEED, OTHER_SEED):
            with tempfile.TemporaryDirectory(prefix=".bench_tmp_",
                                             dir=run.ROOT) as work:
                st = wl.setup(run.fresh_import(), seed, work)
                outs, _ = run.run_ops(wl, st, wl.digest_step)
                clean = run.evaluate(wl, st, outs, seed, expected)
                if seed == run.DEFAULT_SEED:
                    corrupted = 1
                    bad = [wl.corrupt(outs[0])] + outs[1:]
                else:
                    corrupted = len(outs)
                    bad = [wl.corrupt(out) for out in outs]
                failed = run.evaluate(wl, st, bad, seed, expected)
            passed = not clean and (failed == {0} if corrupted == 1 else bool(failed))
            ok = ok and passed
            print(f"{wl.name} seed {seed}: {len(clean)}/{len(outs)} failed as run; "
                  f"{corrupted} corrupted: {len(failed)}/{len(outs)} failed "
                  f"({'ok' if passed else 'NOT DETECTED'})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
