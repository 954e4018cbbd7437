"""Traced stand-in for `python -m meshpoly`, used by the traced cli run.

    python3 bench/cli_probe.py SIDECAR.json <meshpoly arguments...>

Times the import of meshpoly.cli, runs cli.main with the spans.py
tracer installed, writes {"import_s": ..., "trace": ...} to SIDECAR.json
and exits with main's exit code.  Nothing is added to stdout or stderr.
"""

import json
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))


def probe(sidecar: str, argv: list) -> int:
    start = time.perf_counter()
    import meshpoly.cli
    import_s = time.perf_counter() - start
    from spans import Tracer  # this script's directory is on sys.path

    tracer = Tracer()
    tracer.install()
    try:
        return meshpoly.cli.main(argv)
    finally:
        tracer.uninstall()
        Path(sidecar).write_text(json.dumps(
            {"import_s": import_s, "trace": tracer.snapshot()}), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(probe(sys.argv[1], sys.argv[2:]))
