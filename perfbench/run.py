"""Benchmark entry point.

    python3 perfbench/run.py --workload news_train --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: snfuse is imported from ./src,
never from an installed copy. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ones. The line
before it is a JSON object with run details and the environment.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, pinned before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def import_snfuse():
    """Put ./src first on the path and import snfuse from it; exit non-zero when it is absent."""
    src = ROOT / "src"
    if not (src / "snfuse" / "__init__.py").is_file():
        sys.exit(f"perfbench: no snfuse sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import snfuse

    if Path(snfuse.__file__).resolve().parent != (src / "snfuse").resolve():
        sys.exit(f"perfbench: imported snfuse from {snfuse.__file__}, not from {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    import_snfuse()
    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload '{args.workload}'; choose from {', '.join(WORKLOADS)}")
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))

    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        result, details = harness.run(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work_dir, reference
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still has its directory there
            pass
    details.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                   environment=environment())
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
