import re

import pytest

from snfuse.cli import main
from snfuse.config import RunConfig, config_hash, config_text, load_config
from snfuse.errors import DataFormatError

# The config hash ties checkpoints to this exact echo, so its keys and their
# order are a file-format contract.
ECHO_KEYS = [
    "H", "T", "batch_size", "d", "d_model", "ffn_dim", "lr", "max_epochs",
    "max_news_per_day", "n_heads", "n_layers", "no_gcn", "no_n2p", "no_p2n",
    "num_prototypes", "patch_len", "patch_stride", "patience", "pooling",
    "reprogram_heads", "seed", "snp", "vocab_file", "vocab_size",
]


def test_config_text_lists_every_key_in_stable_order():
    lines = config_text(RunConfig()).splitlines()
    assert [line.split(" = ", 1)[0] for line in lines] == ECHO_KEYS
    assert "T = 20" in lines and "H = 1" in lines and "d = 0" in lines


def test_load_config_accepts_aliases_and_rejects_field_names(tmp_path):
    good = tmp_path / "good.cfg"
    good.write_text("T = 8\nH = 5\nd = 6\npatch_len = 4\npatch_stride = 4\n", encoding="utf-8")
    cfg = load_config(good)
    assert (cfg.t_window, cfg.horizon, cfg.dim) == (8, 5, 6)
    assert config_hash(cfg) != config_hash(RunConfig())

    for field_name in ("t_window", "horizon", "dim"):
        bad = tmp_path / f"{field_name}.cfg"
        bad.write_text(f"{field_name} = 8\n", encoding="utf-8")
        with pytest.raises(DataFormatError, match="unknown config key"):
            load_config(bad)


@pytest.mark.parametrize("line,message", [("pooling = foo", "unknown pooling variant 'foo'"),
                                          ("T = 0", "T must be >= 1"),
                                          ("lr = nan", "lr must be finite and positive"),
                                          ("lr = inf", "lr must be finite and positive")])
def test_load_config_reports_out_of_range_values_as_format_errors(tmp_path, line, message):
    bad = tmp_path / "bad.cfg"
    bad.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=f"bad.cfg: {message}"):
        load_config(bad)


# (file text, what the refusal says after the file's name). The parser's refusals name the line and the
# key; validate's name the keys too (H, not the field horizon).
BAD_CONFIGS = {
    "H-below-1": ("H = 0", ": H must be >= 1"),
    "stride-below-1": ("patch_stride = 0", ": patch_stride must be >= 1"),
    "patience-over-epochs": ("max_epochs = 3\npatience = 4", ": patience must not exceed max_epochs"),
    "d-below-0": ("d = -1", r": d must be >= 0 \(0 means infer\)"),
    "prototypes-over-vocab": ("vocab_size = 8\nnum_prototypes = 9", ": num_prototypes must not exceed vocab_size"),
    "patch-over-T": ("T = 4\npatch_len = 5", ": patch_len must not exceed T"),
    "heads-not-dividing": ("n_heads = 3", ": d_model must be divisible by n_heads"),
    "reprogram-heads-not-dividing": ("reprogram_heads = 5", ": d_model must be divisible by reprogram_heads"),
    "bad-boolean": ("snp = maybe", ":1: key 'snp': expected a boolean, got 'maybe'"),
    "bad-integer": ("seed = 0\nT = 8.5", ":2: key 'T': expected an integer, got '8.5'"),
    "bad-number": ("lr = fast", ":1: key 'lr': expected a number, got 'fast'"),
    "duplicate-key": ("seed = 1\n# again\nseed = 2", ":3: duplicate config key 'seed'"),
}


@pytest.mark.parametrize("text,message", BAD_CONFIGS.values(), ids=BAD_CONFIGS.keys())
def test_a_refused_config_is_a_format_error_naming_the_file_and_prepare_exits_2(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.cfg"
    bad.write_text(text + "\n", encoding="utf-8")
    expected = re.escape(str(bad)) + message
    with pytest.raises(DataFormatError, match=f"^{expected}$"):
        load_config(bad)
    # the config is refused before the data is read, so the data directory need not exist
    code = main(["prepare", "--config", str(bad), "--data", str(tmp_path / "data"), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2 and re.fullmatch(f"error: {expected}\n", err)
