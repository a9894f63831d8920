import builtins
import io
import json
import re
import shutil
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import snfuse.cli
from datagen import checkpoint_bytes, toy_dataset_dir, trading_dates, write_dataset_dir, write_prices
from snfuse.cli import main
from snfuse.data import prepare_dataset, write_news_day
from snfuse.model import ForecastModel
from snfuse.training import load_checkpoint


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


def test_prepare_centres_a_constant_training_span_without_dividing_it(tmp_path, capsys):
    # 100 days split 70/10/20: alpha closes at 5 through the training span, and news dimension 1 is
    # 0.25 in every training-span article; both move only after it
    n_days, n_train = 100, 70
    rng = np.random.default_rng(5)
    alpha = np.where(np.arange(n_days) < n_train, 5.0, 6.0)
    beta = 50.0 + rng.integers(1, 9, size=n_days)
    news = [np.column_stack([rng.normal(size=2), np.full(2, 0.25 if day < n_train else 1.25), rng.normal(size=2)])
            for day in range(n_days)]
    data = tmp_path / "data"
    write_dataset_dir(data, trading_dates(n_days), {"alpha": alpha, "beta": beta},
                      {"alpha": np.ones(3), "beta": -np.ones(3)}, news)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("T = 8\npatch_len = 4\npatch_stride = 4\nd = 3\n", encoding="utf-8")
    assert main(["prepare", "--config", str(cfg), "--data", str(data), "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "dataset.manifest").read_text(encoding="utf-8").splitlines()
    assert "price_scaler alpha 5 0 1" in lines
    assert [line.rsplit(" ", 1)[1] for line in lines if line.startswith("price_scaler beta ")] == ["0"]
    assert "news_scaler_constant 0 1 0" in lines
    ds = prepare_dataset(data, 8, 1, expect_dim=3)
    np.testing.assert_array_equal(ds.stocks["alpha"].closes_norm, alpha - 5.0)  # 1.0 after the span, not inf
    for day in (0, n_train - 1, n_train, n_days - 1):
        np.testing.assert_array_equal(ds.news[day][:, 1], [0.0, 0.0] if day < n_train else [1.0, 1.0])


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


def test_train_and_eval_read_the_manifest_once(tmp_path, monkeypatch):
    args, _ = _prepared(tmp_path)
    out = tmp_path / "run"
    reads = []
    real_open = io.open

    def counting_open(file, mode="r", *args, **kwargs):
        if Path(str(file)).name == "dataset.manifest" and not set(mode) & set("wax+"):
            reads.append(mode)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)  # Path.read_bytes and Path.read_text open through it
    monkeypatch.setattr(builtins, "open", counting_open)
    common = [*args, "--out", str(out)]
    assert main(["train", *common]) == 0
    assert len(reads) == 1
    assert main(["eval", *common, "--checkpoint", str(out / "checkpoint.snf")]) == 0
    assert len(reads) == 2


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


def test_malformed_seeds_are_refused_before_the_data_is_read(tmp_path, capsys):
    missing = str(tmp_path / "missing")
    assert main(["train", "--data", missing, "--manifest", missing, "--out", str(tmp_path / "out"), "--seeds", "5"]) == 2
    assert "--seeds takes at least 2 distinct non-negative seeds, got '5'" in capsys.readouterr().err


@pytest.mark.parametrize("command,key,path", [
    ("train", "--config", "adir"),
    ("train", "--manifest", "adir"),
    ("eval", "--checkpoint", "adir"),
    ("train", "vocab_file", "adir"),
    ("train", "--out", "afile"),
    ("train", "--out", "afile/out"),
    ("train", "--config", "missing"),
    ("train", "--manifest", "missing"),
    ("eval", "--checkpoint", "missing"),
    ("train", "vocab_file", "missing"),
], ids=["config-dir", "manifest-dir", "checkpoint-dir", "vocab-dir", "out-file", "out-under-file",
        "config-missing", "manifest-missing", "checkpoint-missing", "vocab-missing"])
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
    assert f"'{path}'" in err  # the OS's own message, e.g. "[Errno 2] No such file or directory: '<path>'"


def test_a_refused_command_leaves_the_effective_config_of_the_run_before_it(tmp_path, capsys):
    common, _ = _prepared(tmp_path)
    out = tmp_path / "run"
    assert main(["train", *common, "--out", str(out)]) == 0
    before = (out / "effective.cfg").read_bytes()
    assert b"pooling = sap\n" in before
    capsys.readouterr()
    fresh = tmp_path / "fresh"
    for target in (out, fresh):
        assert main(["eval", *common, "--out", str(target), "--checkpoint", str(out / "checkpoint.snf"),
                     "--pooling", "ap"]) == 2
        assert "trained with a different configuration" in capsys.readouterr().err
    assert (out / "effective.cfg").read_bytes() == before
    assert not (out / "run_meta.eval.json").exists() and not (fresh / "effective.cfg").exists()


# The path flags each command requires; argparse refuses a command line without one.
REQUIRED = {
    "prepare": ["--data"],
    "train": ["--data", "--manifest"],
    "eval": ["--data", "--manifest", "--checkpoint"],
    "ablate": ["--data", "--manifest"],
    "gradcheck": [],
    "report": ["--data", "--manifest", "--checkpoint"],
}


def _refused(tmp_path, capsys, command, drop=None, extra=()):
    """Exit code and stderr of a command line that argparse refuses, after checking it wrote nothing."""
    out = tmp_path / "out"
    flags = [part for flag in REQUIRED[command] if flag != drop for part in (flag, str(tmp_path / flag[2:]))]
    with pytest.raises(SystemExit) as exc:
        main([command, "--out", str(out), *flags, *extra])
    assert not out.exists()
    return exc.value.code, capsys.readouterr().err


@pytest.mark.parametrize("command,flag", [
    (command, flag) for command, flags in REQUIRED.items() for flag in flags if flag != "--checkpoint"
])
def test_a_missing_data_or_manifest_flag_exits_2_before_any_output(tmp_path, capsys, command, flag):
    code, err = _refused(tmp_path, capsys, command, drop=flag)
    assert code == 2 and f"the following arguments are required: {flag}" in err


@pytest.mark.parametrize("command,extra", [
    ("prepare", ["--seeds", "0,1"]),
    ("eval", ["--seeds", "0,1"]),
    ("ablate", ["--seeds", "0,1"]),
    ("report", ["--seeds", "0,1"]),
    ("gradcheck", ["--seeds", "0,1"]),
    ("gradcheck", ["--data", "data"]),
], ids=["prepare-seeds", "eval-seeds", "ablate-seeds", "report-seeds", "gradcheck-seeds", "gradcheck-data"])
def test_a_flag_the_command_does_not_read_exits_2_before_any_output(tmp_path, capsys, command, extra):
    code, err = _refused(tmp_path, capsys, command, extra=extra)
    assert code == 2 and f"unrecognized arguments: {' '.join(extra)}" in err


@pytest.mark.parametrize("n_days,message", [
    (40, "40 trading days leave no window of T=8, H=1 in the val and test splits"),
    (80, "80 trading days leave no window of T=8, H=1 in the val split;"),
], ids=["val-and-test", "val"])
def test_a_dataset_with_empty_splits_exits_2(tmp_path, capsys, n_days, message):
    # 40 days split 28/4/8 and 80 days 56/8/16, and a window spans T + H = 9 days
    data = toy_dataset_dir(tmp_path / "data", n_days=n_days)
    prep = tmp_path / "prep"
    code = main(["prepare", "--config", str(_tiny_cfg(tmp_path)), "--data", str(data), "--out", str(prep)])
    err = capsys.readouterr().err
    assert code == 2 and message in err and "Traceback" not in err
    assert not (prep / "dataset.manifest").exists()


def test_gradcheck_ignores_a_vocab_file_of_the_wrong_shape(tmp_path, capsys):
    # the toy's widths never match a real vocabulary, so the toy keeps its seeded one
    cfg = _tiny_cfg(tmp_path)
    cfg.write_text(cfg.read_text(encoding="utf-8") + f"vocab_file = {_vocab_file(tmp_path / 'v.emb', 4, 0)}\n",
                   encoding="utf-8")
    assert main(["gradcheck", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert "gradcheck PASS" in capsys.readouterr().out


@pytest.mark.parametrize("pooling", ["none", "ap", "cap", "pasap"])
def test_ablate_with_a_pooling_other_than_sap_exits_2(tmp_path, capsys, pooling):
    common, _ = _prepared(tmp_path)
    capsys.readouterr()
    assert main(["ablate", *common, "--out", str(tmp_path / "out"), "--pooling", pooling]) == 2
    assert f"ablation grid requires pooling=sap, got '{pooling}'" in capsys.readouterr().err


def _report(tmp_path, common):
    out = tmp_path / "run"
    assert main(["train", *common, "--out", str(out)]) == 0
    assert main(["report", *common, "--out", str(out), "--checkpoint", str(out / "checkpoint.snf")]) == 0
    return out


def test_report_plots_the_first_step_of_each_stock_through_matplotlib(tmp_path, monkeypatch):
    common, _ = _prepared(tmp_path)
    plt = mock.MagicMock(name="pyplot")
    figures = []

    def subplots(**kwargs):
        figures.append((mock.MagicMock(name="figure"), mock.MagicMock(name="axes")))
        return figures[-1]

    plt.subplots.side_effect = subplots
    matplotlib = mock.MagicMock(name="matplotlib", pyplot=plt)
    monkeypatch.setitem(sys.modules, "matplotlib", matplotlib)
    monkeypatch.setitem(sys.modules, "matplotlib.pyplot", plt)
    out = _report(tmp_path, common)

    matplotlib.use.assert_called_with("Agg")
    assert len(figures) == 2
    assert [call.args[0] for call in plt.close.call_args_list] == [fig for fig, _ in figures]
    for stock, (fig, ax) in zip(["alpha", "beta"], figures):
        fig.savefig.assert_called_once_with(out / f"{stock}_predictions.svg", metadata={"Date": None})
        rows = [line.split(",") for line in (out / f"{stock}_predictions.csv").read_text().splitlines()[1:]]
        (x, actual), (_, predicted) = (call.args for call in ax.plot.call_args_list)
        np.testing.assert_array_equal(x, np.arange(len(rows)))
        assert [float(r[3]) for r in rows] == list(actual) and [float(r[4]) for r in rows] == list(predicted)


def test_report_without_matplotlib_writes_only_the_csvs(tmp_path, monkeypatch):
    common, _ = _prepared(tmp_path)
    monkeypatch.setitem(sys.modules, "matplotlib", None)  # import matplotlib raises ImportError
    out = _report(tmp_path, common)
    written = sorted(p.name for p in out.iterdir() if p.name.endswith((".csv", ".svg")))
    assert written == ["alpha_predictions.csv", "beta_predictions.csv", "history.csv"]


def _names_edit(data, edit):
    """Rewrite names.tsv line by line (a list of its [id, display name, embedding] fields)."""
    rows = [line.split("\t") for line in (data / "names.tsv").read_text(encoding="utf-8").splitlines()]
    (data / "names.tsv").write_text("".join("\t".join(r) + "\n" for r in edit(rows)), encoding="utf-8")
    return data / "names.tsv"


def _bad_close(data):
    lines = (data / "beta" / "prices.csv").read_text(encoding="utf-8").splitlines()
    lines[3] = lines[3].split(",")[0] + ",abc"
    (data / "beta" / "prices.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return data / "beta" / "prices.csv"


def _week_date(data):
    # 2021-W27-1 is 2021-07-05, the date it replaces, written in ISO 8601's week form
    lines = (data / "beta" / "prices.csv").read_text(encoding="utf-8").splitlines()
    assert lines[3].startswith("2021-07-05,")
    lines[3] = lines[3].replace("2021-07-05", "2021-W27-1")
    (data / "beta" / "prices.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return data / "beta" / "prices.csv"


def _huge_closes(data):
    # finite, positive closes whose training-span mean overflows float64
    lines = (data / "alpha" / "prices.csv").read_text(encoding="utf-8").splitlines()
    for i, close in ((1, "1e308"), (2, "1.7e308")):
        lines[i] = lines[i].split(",")[0] + "," + close
    (data / "alpha" / "prices.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return data / "alpha" / "prices.csv"


def _crowded_news_day(data):
    # 9 articles on one day, over a max_news_per_day of 5
    path = sorted((data / "news").iterdir())[3]
    write_news_day(path, np.ones((9, 6)))
    return path


def _embedding(text):
    return lambda rows: [[rows[0][0], rows[0][1], text], *rows[1:]]


def _stock_id(sid):
    return lambda data: _names_edit(data, lambda rows: [[sid, *rows[0][1:]], *rows[1:]])


# case -> (edit of the toy data directory returning the path the error must name, config text, message)
BAD_INPUTS = {
    "non-numeric-close": (_bad_close, "", ":4: bad close 'abc'"),
    "date-not-in-yyyy-mm-dd-form": (_week_date, "", ":4: bad date '2021-W27-1': not in YYYY-MM-DD form"),
    "closes-overflow-the-price-scaler": (_huge_closes, "", ": closes overflow float64 when scaled"),
    "duplicate-stock": (lambda data: _names_edit(data, lambda rows: [*rows, rows[0]]), "",
                        ":3: duplicate stock id 'alpha'"),
    "bad-embedding": (lambda data: _names_edit(data, _embedding("1.0,x,0,0,0,0")), "", ":1: bad embedding literal"),
    "non-finite-embedding": (lambda data: _names_edit(data, _embedding("1.0,nan,0,0,0,0")), "",
                             ":1: embedding contains non-finite values"),
    "empty-stock-id": (_stock_id(""), "", ":1: stock id '' is not one plain directory name"),
    "dot-stock-id": (_stock_id("."), "", ":1: stock id '.' is not one plain directory name"),
    "dot-dot-stock-id": (_stock_id(".."), "", ":1: stock id '..' is not one plain directory name"),
    "stock-id-with-a-slash": (_stock_id("a/b"), "", ":1: stock id 'a/b' is not one plain directory name"),
    "stock-id-with-a-backslash": (_stock_id("a\\b"), "", ":1: stock id 'a\\b' is not one plain directory name"),
    "stock-id-with-a-comma": (_stock_id("a,b"), "", ":1: stock id 'a,b' is not one plain directory name"),
    "stock-id-with-a-quote": (_stock_id('"a'), "", ":1: stock id '\"a' is not one plain directory name"),
    "stock-id-with-a-nul": (_stock_id("a\0b"), "", ":1: stock id 'a\0b' is not one plain directory name"),
    "stock-id-average": (_stock_id("average"), "",
                         ":1: stock id 'average' labels the summary row of eval.csv and multiseed.csv"),
    "width-differs-from-d": (lambda data: data / "names.tsv", "d = 5\n", ": embedding dim 6 does not match configured d=5"),
    "news-day-over-max-news-per-day": (_crowded_news_day, "max_news_per_day = 5\n",
                                       ": 9 articles, more than max_news_per_day = 5"),
    "embedding-beyond-float32": (lambda data: _names_edit(data, _embedding("1e300,0,0,0,0,0")), "",
                                 ":1: embedding value beyond float32's largest finite value"),
    "missing-data-directory": (lambda data: data / "absent", "", None),
}


@pytest.mark.parametrize("edit,config,message", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_a_malformed_input_file_makes_prepare_exit_2_with_one_line_naming_it(tmp_path, capsys, edit, config, message):
    data = toy_dataset_dir(tmp_path / "data", n_days=60)
    path = edit(data)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config, encoding="utf-8")
    data_dir = path if message is None else data
    code = main(["prepare", "--config", str(cfg), "--data", str(data_dir), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
    assert (f"{path}{message}" if message else f"data directory not found: {path}") in err


def test_a_news_day_over_max_news_per_day_is_kept_when_nothing_is_pooled(tmp_path, capsys):
    data = toy_dataset_dir(tmp_path / "data", n_days=95)
    _crowded_news_day(data)
    cfg = _tiny_cfg(tmp_path)
    cfg.write_text(cfg.read_text(encoding="utf-8") + "max_news_per_day = 5\npooling = none\n", encoding="utf-8")
    prep = tmp_path / "prep"
    assert main(["prepare", "--config", str(cfg), "--data", str(data), "--out", str(prep)]) == 0
    assert main(["train", "--config", str(cfg), "--data", str(data), "--manifest", str(prep / "dataset.manifest"),
                 "--out", str(tmp_path / "run")]) == 0
    assert capsys.readouterr().err == ""


def test_a_stock_id_that_leaves_the_data_directory_is_refused_before_anything_outside_is_touched(
        tmp_path, capsys, monkeypatch):
    data = toy_dataset_dir(tmp_path / "data", n_days=60)
    shutil.copytree(data / "beta", tmp_path / "x")  # a stock that would load, outside --data
    _stock_id("../x")(data)
    before = sorted(tmp_path.rglob("*"))
    reads = []
    real = Path.read_bytes
    monkeypatch.setattr(Path, "read_bytes", lambda path: reads.append(path) or real(path))
    assert main(["prepare", "--data", str(data), "--out", str(tmp_path / "out")]) == 2
    assert reads == [data / "names.tsv"]
    assert [p for p in sorted(tmp_path.rglob("*")) if not p.is_relative_to(tmp_path / "out")] == before
    err = capsys.readouterr().err
    assert err == f"error: {data / 'names.tsv'}:1: stock id '../x' is not one plain directory name\n"


def test_a_poisoned_parameter_makes_train_exit_1_naming_it(tmp_path, capsys, monkeypatch):
    common, _ = _prepared(tmp_path)

    def poisoned(cfg, dim):
        model = ForecastModel(cfg, dim)
        model.params["reprog.head.b"].data[:] = np.nan  # the last op before the loss, so no softmax sees it first
        return model

    monkeypatch.setattr(snfuse.cli, "ForecastModel", poisoned)
    capsys.readouterr()
    assert main(["train", *common, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == "error: non-finite loss at epoch 1; first non-finite tensor: reprog.head.b\n"
    assert not (tmp_path / "out" / "checkpoint.snf").exists()


def test_eval_refuses_a_checkpoint_that_does_not_fit_the_model(tmp_path, capsys):
    common, _ = _prepared(tmp_path)
    out = tmp_path / "run"
    assert main(["train", *common, "--out", str(out)]) == 0
    good = out / "checkpoint.snf"
    ckpt = load_checkpoint(good)
    tensors = sorted(ckpt.tensors.items())
    digests = (ckpt.cfg_hash.encode(), ckpt.manifest_hash.encode())
    head_b = dict(tensors)["reprog.head.b"]

    def poisoned(pid, value):  # a NaN in the head's bias would reach eval.csv, one in the projection a softmax
        return checkpoint_bytes([(n, a + value if n == pid else a) for n, a in tensors], *digests)

    cases = {
        "other-config": (checkpoint_bytes(tensors, b"0" * 64, digests[1]), "trained with a different configuration"),
        "other-manifest": (checkpoint_bytes(tensors, digests[0], b"0" * 64), "against a different dataset manifest"),
        "missing": (checkpoint_bytes(tensors[1:], *digests), f"missing=['{tensors[0][0]}'] extra=[]"),
        "extra": (checkpoint_bytes([*tensors, ("zz.extra", np.zeros(2))], *digests), "missing=[] extra=['zz.extra']"),
        "wrong-shape": (checkpoint_bytes([(n, np.zeros(3) if n == "reprog.head.b" else a) for n, a in tensors],
                                         *digests), f"tensor 'reprog.head.b' shape (3,) != {head_b.shape}"),
        "trailing-bytes": (good.read_bytes() + b"\0", "1 trailing bytes"),
        **{f"{pid}-{value}": (poisoned(pid, value), f"tensor '{pid}' holds a non-finite value") for pid, value in
           [("reprog.head.b", np.nan), ("reprog.vocab_proj.w", np.nan), ("reprog.vocab_proj.w", -np.inf)]},
    }
    assert checkpoint_bytes(tensors, *digests) == good.read_bytes()  # the edits start from the trained file
    for name, (raw, message) in cases.items():
        path = tmp_path / f"{name}.snf"
        path.write_bytes(raw)
        capsys.readouterr()
        assert main(["eval", *common, "--out", str(tmp_path / name), "--checkpoint", str(path)]) == 2, name
        err = capsys.readouterr().err
        # every refusal leads with the checkpoint file's name
        assert err.startswith(f"error: {path}: ") and message in err and err.count("\n") == 1, (name, err)
        assert not (tmp_path / name / "eval.csv").exists(), name


def test_refusals_that_the_config_decides_come_before_the_data_is_read(tmp_path, capsys, monkeypatch):
    common, _ = _prepared(tmp_path)
    out = tmp_path / "run"
    assert main(["train", *common, "--out", str(out)]) == 0
    calls = []
    real = snfuse.cli.prepare_dataset
    monkeypatch.setattr(snfuse.cli, "prepare_dataset", lambda *a, **k: calls.append(a) or real(*a, **k))
    checkpoint = ["--checkpoint", str(out / "checkpoint.snf")]
    capsys.readouterr()

    assert main(["ablate", *common, "--out", str(tmp_path / "ablate"), "--pooling", "ap"]) == 2
    assert "ablation grid requires pooling=sap, got 'ap'" in capsys.readouterr().err
    assert main(["eval", *common, "--out", str(tmp_path / "eval_ap"), *checkpoint, "--pooling", "ap"]) == 2
    assert "trained with a different configuration" in capsys.readouterr().err
    assert calls == []
    assert main(["eval", *common, "--out", str(tmp_path / "eval"), *checkpoint]) == 0  # the wrapper counts
    assert len(calls) == 1
