"""Every loader of outside input fails only with DataFormatError or FileNotFoundError.

Invalid UTF-8 in a text file or in a checkpoint's header strings is a
format error naming the file, and the CLI turns it into exit code 2. The
fuzz tests feed each loader arbitrary bytes and near-valid files; the
example counts are capped so the whole file runs in a few seconds.
"""

from __future__ import annotations

import csv
import io
import struct
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datagen import checkpoint_bytes, toy_dataset_dir
from oracles import load_prices_per_row
from snfuse.cli import main
from snfuse.config import load_config
from snfuse.data import NEWS_MAGIC, load_contexts, load_news_day, load_prices
from snfuse.errors import DataFormatError
from snfuse.training import CHECKPOINT_MAGIC, load_checkpoint

FUZZ = settings(max_examples=150, deadline=None)
CHECKPOINT = checkpoint_bytes([("w", np.eye(2))])


@pytest.mark.parametrize("loader,name,content", [
    (load_config, "bad.cfg", b"lr = \xff\n"),
    (load_prices, "prices.csv", b"date,close\n2021-07-01,1\xff\n"),
    (load_contexts, "names.tsv", b"a\tA\xfe\t1.0,2.0\n"),
    (load_checkpoint, "checkpoint.snf", checkpoint_bytes([], cfg_digest=b"\xc3\x28")),
], ids=["config", "prices", "contexts", "checkpoint"])
def test_invalid_utf8_is_a_format_error_naming_the_file(tmp_path, loader, name, content):
    path = tmp_path / name
    path.write_bytes(content)
    with pytest.raises(DataFormatError, match=name):
        loader(path)


def test_a_checkpoint_shape_whose_size_overflows_int64_is_truncated(tmp_path):
    path = tmp_path / "huge.snf"
    one_empty_tensor = checkpoint_bytes([("w", np.zeros((0, 0, 0)))])
    path.write_bytes(one_empty_tensor[:-12] + struct.pack("<3I", 2**31, 2**31, 4))
    with pytest.raises(DataFormatError, match="truncated"):
        load_checkpoint(path)


def test_a_prices_field_over_the_csv_size_limit_is_a_format_error(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text("date,close\n2021-07-01," + "1" * 200_000 + "\n", encoding="utf-8")
    with pytest.raises(DataFormatError, match="field larger"):
        load_prices(path)


def test_cli_exits_2_on_invalid_utf8_in_a_config_or_a_checkpoint(tmp_path, capsys):
    data = toy_dataset_dir(tmp_path / "data", n_days=210)
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_bytes(b"lr = \xff\n")
    assert main(["prepare", "--config", str(bad_cfg), "--data", str(data), "--out", str(tmp_path / "a")]) == 2
    assert "bad.cfg: not valid UTF-8" in capsys.readouterr().err

    prep = tmp_path / "prep"
    assert main(["prepare", "--data", str(data), "--out", str(prep)]) == 0
    ckpt = tmp_path / "bad.snf"
    ckpt.write_bytes(checkpoint_bytes([], cfg_digest=b"\xff"))
    code = main(["eval", "--data", str(data), "--manifest", str(prep / "dataset.manifest"),
                 "--checkpoint", str(ckpt), "--out", str(tmp_path / "b")])
    assert code == 2
    assert "bad.snf: a header string is not valid UTF-8" in capsys.readouterr().err


# -- fuzzing -----------------------------------------------------------------


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _load_or_refuse(loader, path, content: bytes) -> None:
    path.write_bytes(content)
    try:
        loader(path)
    except (DataFormatError, FileNotFoundError):
        pass


def _edited(raw: bytes, at: int, byte: int, cut: bool) -> bytes:
    """raw cut short at `at`, or with the byte there replaced."""
    return raw[:at] if cut else raw[:at] + bytes([byte]) + raw[at + 1 :]


def _text_lines(alphabet: str, lead: list[str]):
    """Files of lines drawn from `alphabet`, sometimes led by `lead`, or arbitrary bytes."""
    line = st.text(alphabet=alphabet, max_size=30)
    as_text = st.tuples(st.sampled_from([[], lead]), st.lists(line, max_size=8)).map(
        lambda parts: "\n".join(parts[0] + parts[1]).encode("utf-8"))
    return st.one_of(as_text, st.binary(max_size=80))


@FUZZ
@given(content=st.one_of(
    st.binary(max_size=64),
    st.builds(lambda n, d, payload: NEWS_MAGIC + struct.pack("<II", n, d) + payload,
              st.integers(0, 4), st.one_of(st.integers(0, 4), st.integers(0, 2**32 - 1)), st.binary(max_size=80)),
))
def test_fuzz_load_news_day(scratch, content):
    _load_or_refuse(load_news_day, scratch / "2021-07-01.emb", content)


@FUZZ
@given(content=st.one_of(
    st.binary(max_size=64),
    st.binary(max_size=64).map(lambda tail: CHECKPOINT_MAGIC + tail),
    st.builds(_edited, st.just(CHECKPOINT), st.integers(0, len(CHECKPOINT) - 1), st.integers(0, 255), st.booleans()),
))
def test_fuzz_load_checkpoint(scratch, content):
    _load_or_refuse(load_checkpoint, scratch / "checkpoint.snf", content)


@FUZZ
@given(content=_text_lines("Tdlrpoingsaeb_ =#0123456789.-+einfa\t\r\xff ", ["lr = 0.01", "T = 8"]))
def test_fuzz_load_config(scratch, content):
    _load_or_refuse(load_config, scratch / "run.cfg", content)


@FUZZ
@given(content=_text_lines("aA\t,0123456789.-+einf \r\x00\xe9", ["a\tA\t1.0,2.0"]))
def test_fuzz_load_contexts(scratch, content):
    _load_or_refuse(load_contexts, scratch / "names.tsv", content)


PRICE_LINES = _text_lines("date,close0123456789-.+einf\"\r\x00 ", ["date,close", "2021-07-01,100"])


@FUZZ
@given(content=PRICE_LINES)
def test_fuzz_load_prices(scratch, content):
    _load_or_refuse(load_prices, scratch / "prices.csv", content)


PRICE_FAULTS = (
    [("date", day) for day in ["20210702", "2021-W26-5", "２０２１-07-02", "2021-07-0\u0662", "0000-01-01",
                               "2021-02-30", "2021-7-01", " 2021-07-02", "2021-07-02\n2021-07-03", "2021,07,02", ""]]
    + [("close", close) for close in ["nan", "inf", "-inf", "1e400", "1e-400", "0", "-0", "-2", " 3 ", "1_000",
                                      "\u0661\u0662", "abc", "", "1,5", "4\n5"]]
    + [("step", 0), ("step", -1)]  # a duplicate date, a decreasing one
    + [("fields", 0), ("fields", 1), ("fields", 3)]
)


def _prices_file(closes: list[float], faults: list[tuple[int, tuple]], quote_all: bool, line_end: str) -> bytes:
    """A prices.csv of closes on consecutive days from 2021-07-01, each row written by csv.writer with
    line_end, every field quoted or only those that need it; each fault (row, (kind, value)) gives row
    number row modulo the rows another date or close, a date step days after the last one's, or its
    first value fields of [date, close, "x"]."""
    out = io.StringIO(newline="")
    writer = csv.writer(out, quoting=csv.QUOTE_ALL if quote_all else csv.QUOTE_MINIMAL, lineterminator=line_end)
    writer.writerow(["date", "close"])
    fault_at = {row % len(closes): fault for row, fault in faults} if closes else {}
    day = date(2021, 6, 30)
    for i, close in enumerate(closes):
        kind, value = fault_at.get(i, (None, None))
        day += timedelta(days=value if kind == "step" else 1)
        row = [value if kind == "date" else day.isoformat(), value if kind == "close" else repr(close), "x"]
        writer.writerow(row[: value if kind == "fields" else 2])
    return out.getvalue().encode("utf-8")


_FAULT = st.tuples(st.integers(-1, 11), st.sampled_from(PRICE_FAULTS))
PRICE_FILES = st.builds(  # most with one fault, the only one the column checks meet
    _prices_file,
    st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), max_size=12),
    st.lists(_FAULT, min_size=1, max_size=3) | st.lists(_FAULT, max_size=1),
    st.booleans(),
    st.sampled_from(["\n", "\r\n"]),
)


def _assert_loads_as_the_per_row_oracle(path, content: bytes) -> None:
    """load_prices returns the per-row loader's dates, close bits and digest, or refuses with its message."""
    path.write_bytes(content)

    def outcome(loader):
        try:
            dates, closes, digest = loader(path)
        except DataFormatError as exc:
            return str(exc)
        return dates, closes.dtype, closes.shape, closes.tobytes(), digest

    assert outcome(load_prices) == outcome(load_prices_per_row), content


def test_load_prices_refuses_each_fault_in_each_place_as_the_per_row_oracle_does(scratch):
    for fault in PRICE_FAULTS:
        for row in (0, 2, -1):  # the first, a middle and the last of five rows
            for quote_all in (False, True):
                for line_end in ("\n", "\r\n"):
                    content = _prices_file([1.0, 2.5, 5e-324, 0.5, 7.25], [(row, fault)], quote_all, line_end)
                    _assert_loads_as_the_per_row_oracle(scratch / "prices.csv", content)


@settings(max_examples=400, deadline=None)
@given(content=PRICE_FILES | PRICE_LINES)
def test_load_prices_returns_or_refuses_as_the_per_row_oracle_does(scratch, content):
    _assert_loads_as_the_per_row_oracle(scratch / "prices.csv", content)
