"""Write expected.json: output digests of every workload at the default seed.

    python3 bench/freeze.py

Runs each workload's operations without a time limit, up to the whole
corpus or the workload's digest_cap, refuses to freeze any output its
own oracle rejects, and stores one digest per digest_step operations.
Run it only when a change alters outputs on purpose, and say so in
CHANGES.md: the digests are what makes a byte change visible.
"""

import json
import sys
import tempfile

import run
from workloads import WORKLOADS


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    frozen = {"seed": run.DEFAULT_SEED}
    for wl in WORKLOADS.values():
        with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=run.ROOT) as work:
            st = wl.setup(run.fresh_import(), run.DEFAULT_SEED, work)
            count = wl.digest_cap if st.n_ops is None else st.n_ops
            outs, _ = run.run_ops(wl, st, count)
            failed = run.evaluate(wl, st, outs, run.DEFAULT_SEED)
        if failed:
            print(f"{wl.name}: {len(failed)} outputs fail their checks, "
                  "nothing frozen", file=sys.stderr)
            return 1
        frozen[wl.name] = {"step": wl.digest_step, "ops": len(outs),
                           "digests": run.segment_digests(wl, outs, wl.digest_step)}
        print(f"{wl.name}: {len(outs)} outputs frozen", file=sys.stderr)
    run.EXPECTED.write_text(json.dumps(frozen, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
