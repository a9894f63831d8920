import json
import re

import numpy as np
import pytest

from datagen import toy_dataset_dir, trading_dates, write_prices
from snfuse.cli import main
from snfuse.data import write_news_day


def _tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(
        "T = 8\npatch_len = 4\npatch_stride = 4\nmax_epochs = 1\npatience = 1\n"
        "d_model = 8\nn_heads = 2\nffn_dim = 8\nvocab_size = 8\nnum_prototypes = 4\n",
        encoding="utf-8",
    )
    return path


def _prepared(tmp_path, config_lines=""):
    """A prepared toy dataset: (the --config/--data/--manifest arguments, the config file)."""
    data = toy_dataset_dir(tmp_path / "data", n_days=95)
    cfg = _tiny_cfg(tmp_path)
    cfg.write_text(cfg.read_text(encoding="utf-8") + config_lines, encoding="utf-8")
    prep = tmp_path / "prep"
    assert main(["prepare", "--config", str(cfg), "--data", str(data), "--out", str(prep)]) == 0
    return ["--config", str(cfg), "--data", str(data), "--manifest", str(prep / "dataset.manifest")], cfg


def _vocab_file(path, rows, seed):
    write_news_day(path, np.random.default_rng(seed).normal(size=(rows, 8)))
    return path


def test_prepare_nonpositive_close_exits_2(tmp_path, capsys):
    data = toy_dataset_dir(tmp_path / "data", n_days=60)
    closes = np.full(60, 10.0)
    closes[30] = -1.0
    write_prices(data / "beta" / "prices.csv", trading_dates(60), closes)
    code = main(["prepare", "--data", str(data), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "close must be finite and positive" in capsys.readouterr().err


def test_prepare_too_short_series_exits_2(tmp_path, capsys):
    data = toy_dataset_dir(tmp_path / "data", n_days=20)
    code = main(["prepare", "--data", str(data), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "too short" in capsys.readouterr().err


def test_train_with_one_direction_removed_exits_0(tmp_path):
    data = toy_dataset_dir(tmp_path / "data", n_days=95)
    cfg = _tiny_cfg(tmp_path)
    prep = tmp_path / "prep"
    assert main(["prepare", "--config", str(cfg), "--data", str(data), "--out", str(prep)]) == 0
    for flag in ("--no-p2n", "--no-n2p"):
        out = tmp_path / flag.strip("-")
        code = main(["train", "--config", str(cfg), "--data", str(data), "--manifest",
                     str(prep / "dataset.manifest"), "--out", str(out), flag])
        assert code == 0
        assert (out / "checkpoint.snf").is_file()


@pytest.mark.parametrize("line", ["pooling = foo", "T = 0", "lr = nan"])
def test_prepare_with_out_of_range_config_value_exits_2(tmp_path, capsys, line):
    data = toy_dataset_dir(tmp_path / "data", n_days=60)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    code = main(["prepare", "--config", str(cfg), "--data", str(data), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "bad.cfg" in capsys.readouterr().err


def test_each_command_writes_its_own_sidecar(tmp_path):
    data = toy_dataset_dir(tmp_path / "data", n_days=95)
    cfg = _tiny_cfg(tmp_path)
    prep, out = tmp_path / "prep", tmp_path / "run"
    assert main(["prepare", "--config", str(cfg), "--data", str(data), "--out", str(prep)]) == 0
    common = ["--config", str(cfg), "--data", str(data), "--manifest", str(prep / "dataset.manifest"), "--out", str(out)]
    assert main(["train", *common]) == 0
    assert main(["eval", *common, "--checkpoint", str(out / "checkpoint.snf")]) == 0
    assert sorted(p.name for p in out.glob("run_meta*")) == ["run_meta.eval.json", "run_meta.train.json"]
    for command in ("train", "eval"):
        meta = json.loads((out / f"run_meta.{command}.json").read_text(encoding="utf-8"))
        assert meta["command"] == command and meta["started"] <= meta["finished"]


@pytest.mark.parametrize("command,flags,written", [
    ("train", ["--seeds", "0,1"], "multiseed.csv"),
    ("ablate", [], "ablation.csv"),
], ids=["train-seeds", "ablate"])
def test_multi_seed_and_ablate_use_the_vocab_file(tmp_path, command, flags, written):
    common, cfg = _prepared(tmp_path)
    tiny = cfg.read_text(encoding="utf-8")
    outputs = []
    for seed in (1, 2):
        vocab = _vocab_file(tmp_path / f"vocab{seed}.emb", 8, seed)
        cfg.write_text(tiny + f"vocab_file = {vocab}\n", encoding="utf-8")
        out = tmp_path / f"out{seed}"
        assert main([command, *common, "--out", str(out), *flags]) == 0
        outputs.append((out / written).read_bytes())
    assert outputs[0] != outputs[1]


@pytest.mark.parametrize("flags,vocab_rows,message", [
    (["--seed", "-1"], None, "seed must be non-negative"),
    (["--seeds", "5"], None, "at least 2"),
    (["--seeds", ","], None, "at least 2"),
    (["--seeds", "3,-1"], None, "non-negative"),
    (["--seeds", "3,3"], None, "distinct"),
    ([], 4, r"vocabulary shape \(4, 8\)"),
], ids=["negative-seed", "one-seed", "no-seed", "negative-seeds", "repeated-seed", "vocab-shape"])
def test_malformed_flag_input_exits_2(tmp_path, capsys, flags, vocab_rows, message):
    vocab = "" if vocab_rows is None else f"vocab_file = {_vocab_file(tmp_path / 'vocab.emb', vocab_rows, 0)}\n"
    common, _ = _prepared(tmp_path, vocab)
    capsys.readouterr()
    assert main(["train", *common, "--out", str(tmp_path / "out"), *flags]) == 2
    err = capsys.readouterr().err
    assert re.search(message, err) and "Traceback" not in err


@pytest.mark.parametrize("command,key,path", [
    ("train", "--config", "adir"),
    ("train", "--manifest", "adir"),
    ("eval", "--checkpoint", "adir"),
    ("train", "vocab_file", "adir"),
    ("train", "--out", "afile"),
    ("train", "--out", "afile/out"),
], ids=["config-dir", "manifest-dir", "checkpoint-dir", "vocab-dir", "out-file", "out-under-file"])
def test_a_path_of_the_wrong_kind_exits_2(tmp_path, capsys, command, key, path):
    (tmp_path / "adir").mkdir()
    (tmp_path / "afile").write_text("x\n", encoding="utf-8")
    path = str(tmp_path / path)
    common, _ = _prepared(tmp_path, f"vocab_file = {path}\n" if key == "vocab_file" else "")
    flags = dict(zip(common[::2], common[1::2]), **{"--out": str(tmp_path / "out")})
    if key.startswith("--"):
        flags[key] = path
    capsys.readouterr()
    assert main([command, *(part for pair in flags.items() for part in pair)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
