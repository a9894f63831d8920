"""Record the quality figures the correctness gate compares against.

    python3 perfbench/make_reference.py

For every workload and each of the seeds 0-63 this runs one untimed repeat
and writes best_val_mse (training workloads) and test_mse to
perfbench/reference.json, replacing what was there. Regenerate only when a
change to snfuse is meant to change its arithmetic, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run  # pins the BLAS threads before numpy is imported

SEEDS = range(64)


def main() -> int:
    run.import_snfuse()
    import harness
    from workloads import WORKLOADS, run_config

    reference: dict[str, dict] = {}
    run.WORK.mkdir(exist_ok=True)
    for name, w in WORKLOADS.items():
        for seed in SEEDS:
            work_dir = tempfile.mkdtemp(prefix=f"ref-{name}-{seed}-", dir=run.WORK)
            try:
                rep = harness.run_repeat(w, run_config(w), harness.make_inputs(w, seed, Path(work_dir)))
            finally:
                shutil.rmtree(work_dir, ignore_errors=True)
            if rep.failed or rep.errors:
                print(f"{name} seed {seed}: failed: {rep.errors}", file=sys.stderr)
                return 1
            entry = {"test_mse": rep.test_mse}
            if w.kind == "train":
                entry["best_val_mse"] = rep.best_val_mse
            reference.setdefault(name, {})[str(seed)] = entry
            print(f"{name} seed {seed}: {entry}", flush=True)
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    try:
        run.WORK.rmdir()
    except OSError:  # another run still has its directory there
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
