import json
import subprocess
import sys
from pathlib import Path

import clicheck

HERE = Path(__file__).resolve().parent


def test_two_dumps_compare_equal_and_a_flipped_byte_is_reported(tmp_path):
    a, b, c = (tmp_path / f"{name}.json" for name in "abc")
    subprocess.run([sys.executable, str(HERE / "clicheck.py"), "dump", "--src", str(HERE.parent / "src"), "--tiny",
                    str(a)], check=True, capture_output=True)
    assert clicheck.dump(b, tiny=True) > 0
    assert clicheck.compare(a, b) == []
    assert clicheck.main(["compare", str(a), str(b)]) == 0

    rec = clicheck.record(tmp_path / "work", tiny=True)
    assert set(rec["codes"].values()) == {0}
    assert rec == json.loads(b.read_text(encoding="utf-8"))
    name = "sap-default/checkpoint.snf"
    path = tmp_path / "work" / "out" / name
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 1
    path.write_bytes(bytes(raw))
    c.write_text(json.dumps(dict(rec, files=clicheck.hashes(tmp_path / "work" / "out"))), encoding="utf-8")
    assert clicheck.compare(b, c) == [f"differs: file {name}"]
    assert clicheck.main(["compare", str(b), str(c)]) == 1

    c.write_text(json.dumps(dict(rec, codes=dict(rec["codes"], prepare=2))), encoding="utf-8")
    assert clicheck.compare(b, c) == ["differs: exit code prepare: 0 against 2"]
    del rec["files"][name]
    c.write_text(json.dumps(rec), encoding="utf-8")
    assert clicheck.compare(b, c) == [f"only in {b}: file {name}"]
