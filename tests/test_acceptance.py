"""End to end through the CLI: prepare -> train -> eval -> report, twice.

Every output a run promises to be byte-deterministic must come out the
same both times, and the report must agree with the evaluation. A
checkpoint is refused (exit 2) under an edited config or against another
dataset's manifest, and gradcheck passes on the same config. The ablation
grid runs twice on a shorter series and writes the same table each time.
"""

from __future__ import annotations

import csv
import io
import math
import shutil

import numpy as np
import pytest

from datagen import toy_dataset_dir
from snfuse.cli import main
from snfuse.training import ABLATION_ROWS

CONFIG = (
    "T = 8\npatch_len = 4\npatch_stride = 2\nmax_epochs = 2\npatience = 1\nd_model = 8\n"
    "n_heads = 2\nffn_dim = 8\nvocab_size = 8\nnum_prototypes = 4\nsnp = true\n"
)
DETERMINISTIC = ["checkpoint.snf", "eval.csv", "history.csv", "alpha_predictions.csv", "beta_predictions.csv"]


def _pipeline(root, data, cfg) -> list[int]:
    prep, out = root / "prep", root / "out"
    manifest = ["--manifest", str(prep / "dataset.manifest")]
    common = ["--config", str(cfg), "--data", str(data), "--out"]
    codes = [main(["prepare", *common, str(prep)])]
    codes.append(main(["train", *common, str(out), *manifest]))
    checkpoint = ["--checkpoint", str(out / "checkpoint.snf")]
    codes.append(main(["eval", *common, str(out), *manifest, *checkpoint]))
    codes.append(main(["report", *common, str(out), *manifest, *checkpoint]))
    return codes


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """(root, data directory, config file) shared by every test here."""
    root = tmp_path_factory.mktemp("acceptance")
    data = toy_dataset_dir(root / "data", n_days=110)
    cfg = root / "small.cfg"
    cfg.write_text(CONFIG, encoding="utf-8")
    yield root, data, cfg
    shutil.rmtree(root, ignore_errors=True)


@pytest.fixture(scope="module")
def runs(inputs):
    root, data, cfg = inputs
    return [(_pipeline(root / name, data, cfg), root / name / "out") for name in ("first", "second")]


def _eval(cfg, data, manifest, checkpoint, out) -> int:
    return main(["eval", "--config", str(cfg), "--data", str(data), "--out", str(out),
                 "--manifest", str(manifest), "--checkpoint", str(checkpoint)])


def test_every_command_exits_0(runs):
    for codes, _ in runs:
        assert codes == [0, 0, 0, 0]


def test_outputs_are_byte_identical_between_runs(runs):
    (_, first), (_, second) = runs
    for name in DETERMINISTIC:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def test_report_agrees_with_eval(runs):
    _, out = runs[0]
    with open(out / "eval.csv", newline="", encoding="utf-8") as fh:
        eval_mse = {row["stock"]: float(row["mse"]) for row in csv.DictReader(fh)}
    for stock in ("alpha", "beta"):
        with open(out / f"{stock}_predictions.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and [int(row["step"]) for row in rows] == [1] * len(rows)
        err = np.array([float(row["predicted"]) - float(row["actual"]) for row in rows])
        assert float((err * err).mean()) == pytest.approx(eval_mse[stock], rel=1e-12)


def test_eval_refuses_a_checkpoint_under_an_edited_config(inputs, runs, tmp_path, capsys):
    root, data, _ = inputs
    edited = tmp_path / "edited.cfg"
    edited.write_text(CONFIG.replace("max_epochs = 2", "max_epochs = 3"), encoding="utf-8")
    capsys.readouterr()
    code = _eval(edited, data, root / "first" / "prep" / "dataset.manifest", runs[0][1] / "checkpoint.snf", tmp_path)
    assert code == 2
    assert "trained with a different configuration; refusing to evaluate" in capsys.readouterr().err


def test_eval_refuses_a_checkpoint_against_another_manifest(inputs, runs, tmp_path, capsys):
    _, _, cfg = inputs
    other = toy_dataset_dir(tmp_path / "other", n_days=110, seed=8)
    prep = tmp_path / "prep"
    assert main(["prepare", "--config", str(cfg), "--data", str(other), "--out", str(prep)]) == 0
    capsys.readouterr()
    code = _eval(cfg, other, prep / "dataset.manifest", runs[0][1] / "checkpoint.snf", tmp_path / "out")
    assert code == 2
    assert "trained against a different dataset manifest; refusing to evaluate" in capsys.readouterr().err


def test_gradcheck_passes_on_the_acceptance_config(inputs, tmp_path):
    _, _, cfg = inputs
    assert main(["gradcheck", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "gradcheck.txt").read_text(encoding="utf-8").rstrip().endswith("PASS")


def test_ablate_writes_every_row_in_order_byte_identically(tmp_path):
    # 16 trainings: shorter windows, a shorter series and one epoch each keep the test short
    data = toy_dataset_dir(tmp_path / "data", n_days=60)
    cfg = tmp_path / "short.cfg"
    text = CONFIG.replace("T = 8", "T = 4").replace("patch_len = 4", "patch_len = 2")
    cfg.write_text(text.replace("max_epochs = 2", "max_epochs = 1"), encoding="utf-8")
    common = ["--config", str(cfg), "--data", str(data), "--out"]
    assert main(["prepare", *common, str(tmp_path / "prep")]) == 0
    manifest = ["--manifest", str(tmp_path / "prep" / "dataset.manifest")]
    tables = []
    for name in ("first", "second"):
        assert main(["ablate", *common, str(tmp_path / name), *manifest]) == 0
        tables.append((tmp_path / name / "ablation.csv").read_bytes())
    assert tables[0] == tables[1]
    rows = list(csv.DictReader(io.StringIO(tables[0].decode("utf-8"))))
    assert [row["label"] for row in rows] == [label for label, _ in ABLATION_ROWS]
    assert all(math.isfinite(float(row[key])) for row in rows for key in ("mae", "mse"))
