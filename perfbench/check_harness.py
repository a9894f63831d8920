"""Smoke test of the benchmark harness on tiny variants of every workload.

    python3 -m pytest -q perfbench/check_harness.py

The file name keeps it out of the repository's default test run; pytest
collects it when it is named on the command line.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS threads, finds ./src)

run.import_snfuse()

import harness  # noqa: E402
import snfuse.training  # noqa: E402
from snfuse.errors import NumericError  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_CFG = {"t_window": 4, "patch_len": 2, "patch_stride": 2, "d_model": 8, "n_heads": 2,
            "ffn_dim": 16, "vocab_size": 16, "num_prototypes": 4}


def tiny(name: str):
    w = WORKLOADS[name]
    return replace(w, n_stocks=2, n_days=60, dim=6, articles=(2, 5), cfg={**w.cfg, **TINY_CFG})


def run_tiny(name: str, trace: bool, tmp_path: Path):
    return harness.run(tiny(name), seed=3, seconds=0.0, trace=trace, work_dir=tmp_path, reference={})


def test_spec_names_exactly_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    result, details = run_tiny(name, trace, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], details["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], float) and got["value"] == got["value"], m["name"]
    json.dumps(result, allow_nan=False)


def test_repeats_agree_and_self_times_account_for_the_phase(tmp_path):
    w = tiny("signal_train")
    cfg = harness.run_config(w)
    data_dir = harness.make_inputs(w, 3, tmp_path)
    tracer = harness.sp.Tracer()
    plain = harness.run_repeat(w, cfg, data_dir)
    with harness.sp.installed(tracer):
        traced = harness.run_repeat(w, cfg, data_dir, tracer)
    assert (plain.best_val_mse, plain.test_mse) == (traced.best_val_mse, traced.test_mse)
    assert harness.gate(w, 3, [plain, traced], {}) == []
    traced.phase_s *= 1.01  # time the spans did not cover
    assert any("the spans cover" in p for p in harness.gate(w, 3, [traced], {}))
    wrong = {w.name: {"3": {"test_mse": plain.test_mse * (1 + 1e-3)}}}
    assert any("reference" in p for p in harness.gate(w, 3, [plain], wrong))


def test_a_raising_step_is_counted_not_fatal(tmp_path, monkeypatch):
    real = snfuse.training.adam_step
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 2:
            raise NumericError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(snfuse.training, "adam_step", flaky)
    result, details = run_tiny("signal_train", False, tmp_path)
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    ok = result["metrics"]["ok_ratio"]["value"]
    assert ok == pytest.approx((result["attempted"] - result["failed"]) / result["attempted"])
    assert any("injected" in p for p in details["problems"])


def test_a_non_finite_prediction_is_counted(tmp_path, monkeypatch):
    model_cls = harness.ForecastModel
    real = model_cls.predict_sample

    def poisoned(self, *args):
        out = real(self, *args)
        out.data = out.data * float("nan")
        return out

    monkeypatch.setattr(model_cls, "predict_sample", poisoned)
    result, _ = run_tiny("news_eval", False, tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "news_eval", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
