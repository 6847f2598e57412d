"""One set-up of a workload in a fresh interpreter; prints its seconds.

    python3 perfbench/setup_once.py <workload> <seed>

run.py starts this one process at a time to take more set-up samples
than its own: import, spec and manifest construction, one warm-up op.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    workdir = HERE.parent / ".perfbench_out" / f"setup-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        _, problems = workloads.set_up(name, seed, workdir)
        elapsed = time.perf_counter() - T0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if problems:
        print("; ".join(problems), file=sys.stderr)
        return 1
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
