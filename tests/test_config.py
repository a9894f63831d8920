import pytest

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
                                          ("T = 0", "t_window must be >= 1"),
                                          ("lr = nan", "lr must be finite and positive"),
                                          ("lr = inf", "lr must be finite and positive")])
def test_load_config_reports_out_of_range_values_as_format_errors(tmp_path, line, message):
    bad = tmp_path / "bad.cfg"
    bad.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match=f"bad.cfg: {message}"):
        load_config(bad)
