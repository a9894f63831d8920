"""Run the command line over a grid of configurations, and compare two runs file by file.

    python tests/clicheck.py dump --src <tree>/src out.json [--tiny]
    python tests/clicheck.py compare a.json b.json

`dump` imports snfuse from the source tree given by --src, writes the toy
dataset of tests/datagen.py (120 days, two stocks) and runs, in one
process, `prepare` once, then `train`, `eval` and `report` for every
configuration of the grid: the 5 poolings x {the defaults, --snp on,
--no-gcn, --no-p2n --no-n2p --no-gcn}, at T = 8 and 2 epochs. Then
`gradcheck` for every pooling, `ablate` and `train --seeds 0,1,2`. Then,
with a config that also names a seeded vocabulary file (`vocab_file`),
`train`, `eval`, `report`, `gradcheck`, `ablate` and `train --seeds 0,1`.
It records each command's exit code and the sha256 of every file the
commands wrote, except the wall-clock `run_meta.*.json` sidecars. --tiny
keeps sap with the defaults and drops `gradcheck`, `ablate`, `--seeds`
and the vocabulary config, for a smoke test.

`compare` lists every exit code and every file that differs or that only
one run holds, then exits 1 if it listed any.

Run it on two checkouts to show that a change keeps every output byte:

    python tests/clicheck.py dump --src parent/src parent.json
    python tests/clicheck.py dump --src src change.json
    python tests/clicheck.py compare parent.json change.json
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

POOLINGS = ("none", "ap", "cap", "sap", "pasap")
FLAG_SETS = {
    "default": [],
    "snp": ["--snp", "on"],
    "nogcn": ["--no-gcn"],
    "fusionless": ["--no-p2n", "--no-n2p", "--no-gcn"],
}
CONFIG = (
    "T = 8\npatch_len = 4\npatch_stride = 4\nmax_epochs = 2\npatience = 2\n"
    "d_model = 8\nn_heads = 2\nffn_dim = 8\nvocab_size = 8\nnum_prototypes = 4\n"
)


def commands(work: Path, tiny: bool = False):
    """(name, argv) of every command of the grid, in run order; inputs and outputs under work."""
    data, cfg, out = work / "data", work / "tiny.cfg", work / "out"
    vocab_cfg = ["--config", str(work / "vocab.cfg"), "--data", str(data)]
    manifest = ["--manifest", str(out / "prepare" / "dataset.manifest")]
    common = ["--config", str(cfg), "--data", str(data)]
    yield "prepare", ["prepare", *common, "--out", str(out / "prepare")]
    for pooling in ("sap",) if tiny else POOLINGS:
        for label, flags in list(FLAG_SETS.items())[: 1 if tiny else None]:
            key = f"{pooling}-{label}"
            run = ["--out", str(out / key), "--pooling", pooling, *flags]
            checkpoint = ["--checkpoint", str(out / key / "checkpoint.snf")]
            yield f"{key}/train", ["train", *common, *manifest, *run]
            yield f"{key}/eval", ["eval", *common, *manifest, *checkpoint, *run]
            yield f"{key}/report", ["report", *common, *manifest, *checkpoint, *run]
            if label == "default" and not tiny:
                yield f"{key}/gradcheck", ["gradcheck", "--config", str(cfg), *run]
    if not tiny:
        yield "ablate", ["ablate", *common, *manifest, "--out", str(out / "ablate")]
        yield "seeds", ["train", *common, *manifest, "--out", str(out / "seeds"), "--seeds", "0,1,2"]
        run, checkpoint = ["--out", str(out / "vocab")], ["--checkpoint", str(out / "vocab" / "checkpoint.snf")]
        yield "vocab/train", ["train", *vocab_cfg, *manifest, *run]
        yield "vocab/eval", ["eval", *vocab_cfg, *manifest, *checkpoint, *run]
        yield "vocab/report", ["report", *vocab_cfg, *manifest, *checkpoint, *run]
        yield "vocab/gradcheck", ["gradcheck", "--config", str(work / "vocab.cfg"), *run]
        yield "vocab/ablate", ["ablate", *vocab_cfg, *manifest, "--out", str(out / "vocab-ablate")]
        yield "vocab/seeds", ["train", *vocab_cfg, *manifest, "--out", str(out / "vocab-seeds"), "--seeds", "0,1"]


def run_grid(work: Path, tiny: bool = False) -> dict[str, int]:
    """Write the inputs under work, run every command there, and return each one's exit code."""
    from datagen import toy_dataset_dir  # imports snfuse, so only once --src is on the path
    from snfuse.cli import main
    from snfuse.data import write_news_day

    toy_dataset_dir(work / "data", n_days=120)
    (work / "tiny.cfg").write_text(CONFIG, encoding="utf-8")
    write_news_day(work / "vocab.emb", np.random.default_rng(7).normal(size=(8, 8)))  # vocab_size x d_model
    # a relative path, read from work: effective.cfg and the checkpoints echo it, so it must not name the temp dir
    (work / "vocab.cfg").write_text(CONFIG + "vocab_file = vocab.emb\n", encoding="utf-8")
    codes = {}
    with contextlib.chdir(work):
        for name, argv in commands(work, tiny):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    codes[name] = main(argv)
                except SystemExit as exc:  # argparse refuses a command line with exit code 2
                    codes[name] = exc.code
    return codes


def hashes(out: Path) -> dict[str, str]:
    """sha256 of every file under out, by relative path, except the run_meta sidecars."""
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file() and not path.name.startswith("run_meta.")
    }


def record(work: Path, tiny: bool = False) -> dict[str, dict]:
    """Run the grid under work: {"codes": exit code by command, "files": sha256 by output file}."""
    codes = run_grid(work, tiny)
    return {"codes": codes, "files": hashes(work / "out")}


def dump(path: Path, tiny: bool = False) -> int:
    with tempfile.TemporaryDirectory() as work:
        rec = record(Path(work), tiny)
    path.write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return len(rec["files"])


def compare(a_path: Path, b_path: Path) -> list[str]:
    """One line for every exit code and every file that differs between the two runs, in name order."""
    a, b = (json.loads(p.read_text(encoding="utf-8")) for p in (a_path, b_path))
    lines = []
    for kind, what in (("codes", "exit code"), ("files", "file")):
        x, y = a[kind], b[kind]
        lines += [f"only in {a_path}: {what} {name}" for name in sorted(set(x) - set(y))]
        lines += [f"only in {b_path}: {what} {name}" for name in sorted(set(y) - set(x))]
        lines += [f"differs: {what} {name}" + (f": {x[name]} against {y[name]}" if kind == "codes" else "")
                  for name in sorted(set(x) & set(y)) if x[name] != y[name]]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_dump = sub.add_parser("dump", help="run the grid and write its exit codes and output hashes to a .json file")
    p_dump.add_argument("--src", type=Path, required=True, help="the source tree to import snfuse from")
    p_dump.add_argument("--tiny", action="store_true", help="a small grid, for a smoke test")
    p_dump.add_argument("out", type=Path)
    p_cmp = sub.add_parser("compare", help="list every exit code and file that differs between two runs")
    p_cmp.add_argument("a", type=Path)
    p_cmp.add_argument("b", type=Path)
    args = parser.parse_args(argv)

    if args.command == "dump":
        sys.path.insert(0, str(args.src.resolve()))
        print(f"{dump(args.out, args.tiny)} output files hashed into {args.out}")
        return 0
    lines = compare(args.a, args.b)
    for line in lines:
        print(line)
    print(f"{len(lines)} differences" if lines else "no exit code or file differs")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
