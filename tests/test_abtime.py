import re
import shutil
from pathlib import Path

import pytest

import abtime

SRC = Path(__file__).resolve().parent.parent / "src"


def test_one_tree_against_itself_passes_and_a_tree_that_trains_differently_fails(tmp_path, capsys):
    args = ["run", "--a", str(SRC), "--workload", "signal_train", "--tiny"]
    assert abtime.main([*args, "--b", str(SRC), "--rounds", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("outputs differ") == 0
    assert "signal_train: median b/a " in out and " of 2 rounds" in out
    rates = re.search(r"median samples_per_s a (\S+) b (\S+)$", out, re.MULTILINE)
    assert rates and all(float(rate) > 0 for rate in rates.groups())
    spread = re.search(r"^signal_train: b/a quartiles (\S+) (\S+); sign test p (\S+) "
                       r"\(two-sided, (\d+) untied rounds\)$", out, re.MULTILINE)
    assert spread, out
    lo, hi, p, untied = spread.groups()
    ratios = [float(r) for r in re.findall(r"b/a (\d\.\d+)$", out, re.MULTILINE)]
    assert len(ratios) == 2 and min(ratios) - 5e-4 <= float(lo) <= float(hi) <= max(ratios) + 5e-4
    assert 0.0 < float(p) <= 1.0 and untied == "2"

    changed = tmp_path / "src"
    shutil.copytree(SRC / "snfuse", changed / "snfuse", ignore=shutil.ignore_patterns("__pycache__"))
    model = changed / "snfuse" / "model.py"
    text = model.read_text(encoding="utf-8")
    init = "normal(0.0, 1.0 / np.sqrt(d), size=d)"  # the pooling weight's initial spread
    assert init in text
    model.write_text(text.replace(init, "normal(0.0, 2.0 / np.sqrt(d), size=d)"), encoding="utf-8")
    assert abtime.main([*args, "--b", str(changed), "--rounds", "1"]) == 1
    assert "outputs differ" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["signal_train", "news_eval"])
def test_the_setup_phase_times_both_trees_and_fails_when_their_manifests_differ(tmp_path, capsys, name):
    args = ["run", "--a", str(SRC), "--workload", name, "--tiny", "--phase", "setup"]
    assert abtime.main([*args, "--b", str(SRC), "--rounds", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("outputs differ") == 0 and len(re.findall(r"^round \d: a ", out, re.MULTILINE)) == 2
    setup_s = re.search(rf"^{name}: median b/a \S+; b faster in \d of 2 rounds; median setup_s a (\S+) b (\S+)$",
                        out, re.MULTILINE)
    assert setup_s and all(0.0 < float(s) < 5.0 for s in setup_s.groups()), out
    assert re.search(rf"^{name}: b/a quartiles \S+ \S+; sign test p \S+ \(two-sided, 2 untied rounds\)$", out,
                     re.MULTILINE)
    parts = ["load_contexts", "load_prices", "news_read", "assemble_dataset", "ForecastModel"]
    parts += ["load_checkpoint", "apply_checkpoint"] if name == "news_eval" else []
    for tree in "ab":
        line = re.search(rf"^{name}: {tree} fastest set-up parts, ms: (.*); whole set-up (\S+)$", out, re.MULTILINE)
        assert line, out
        fields = line.group(1).split()
        assert fields[::2] == parts
        ms = [float(v) for v in fields[1::2]]
        assert min(ms) >= 0.0 and sum(ms) <= float(line.group(2)) + 5e-5 * (len(ms) + 1)  # each rounded to 1e-4
        assert 0.0 < float(re.search(rf"^{name}: {tree} traced set-up peak (\S+) MB$", out, re.MULTILINE).group(1))

    changed = tmp_path / "src"
    shutil.copytree(SRC / "snfuse", changed / "snfuse", ignore=shutil.ignore_patterns("__pycache__"))
    data = changed / "snfuse" / "data.py"
    text = data.read_text(encoding="utf-8")
    header = 'MANIFEST_HEADER = "SNFMANIFEST 1"'
    assert header in text
    data.write_text(text.replace(header, 'MANIFEST_HEADER = "SNFMANIFEST 2"'), encoding="utf-8")
    assert abtime.main([*args, "--b", str(changed), "--rounds", "1"]) == 1
    out = capsys.readouterr().out
    assert "outputs differ" in out and "the trees' dataset manifests differ" in out


def test_the_setup_phase_reports_each_trees_traced_peak(tmp_path, capsys):
    changed = tmp_path / "src"
    shutil.copytree(SRC / "snfuse", changed / "snfuse", ignore=shutil.ignore_patterns("__pycache__"))
    data = changed / "snfuse" / "data.py"
    data.write_text(data.read_text(encoding="utf-8") + (
        "\n\n_prepare = prepare_dataset\n\n\n"
        "def prepare_dataset(*args, **kwargs):\n"
        "    np.ones(2**20)  # 8 MB, freed at once\n"
        "    return _prepare(*args, **kwargs)\n"), encoding="utf-8")
    args = ["run", "--a", str(SRC), "--b", str(changed), "--workload", "signal_train", "--tiny", "--phase", "setup"]
    assert abtime.main([*args, "--rounds", "1"]) == 0
    out = capsys.readouterr().out
    peak = {tree: float(re.search(rf"^signal_train: {tree} traced set-up peak (\S+) MB$", out, re.MULTILINE).group(1))
            for tree in "ab"}
    assert 0.0 < peak["a"] < 4.0 and peak["b"] >= 8.0, out


@pytest.mark.parametrize("name, phase", [("signal_train", "train"), ("news_eval", "evaluate")])
def test_the_workload_phase_reports_each_trees_traced_peak(tmp_path, capsys, name, phase):
    changed = tmp_path / "src"
    shutil.copytree(SRC / "snfuse", changed / "snfuse", ignore=shutil.ignore_patterns("__pycache__"))
    training = changed / "snfuse" / "training.py"
    training.write_text(training.read_text(encoding="utf-8") + (
        f"\n\n_phase = {phase}\n\n\n"
        f"def {phase}(*args, **kwargs):\n"
        "    np.ones(2**20)  # 8 MB, freed at once\n"
        "    return _phase(*args, **kwargs)\n"), encoding="utf-8")
    args = ["run", "--a", str(SRC), "--b", str(changed), "--workload", name, "--tiny"]
    assert abtime.main([*args, "--rounds", "1"]) == 0
    out = capsys.readouterr().out
    peak = {tree: float(re.search(rf"^{name}: {tree} traced {phase}\(\) peak (\S+) MB$", out, re.MULTILINE).group(1))
            for tree in "ab"}
    assert 0.0 < peak["a"] < 4.0 and peak["b"] >= 8.0, out
