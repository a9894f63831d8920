import subprocess
import sys
from pathlib import Path

import numpy as np

import bitcheck

HERE = Path(__file__).resolve().parent


def test_two_dumps_compare_equal_and_a_perturbed_array_is_reported(tmp_path):
    a, b, c = (tmp_path / f"{name}.npz" for name in "abc")
    subprocess.run([sys.executable, str(HERE / "bitcheck.py"), "dump", "--src", str(HERE.parent / "src"), "--tiny",
                    str(a)], check=True, capture_output=True)
    assert bitcheck.dump(b, tiny=True) > 0
    assert bitcheck.compare(a, b) == []
    assert bitcheck.main(["compare", str(a), str(b)]) == 0

    arrays = dict(np.load(b))
    name = next(key for key in sorted(arrays) if "/grad/" in key)
    bumped = arrays[name].copy()
    bumped.flat[0] = np.nextafter(bumped.flat[0], np.inf)  # one unit in the last place
    np.savez(c, **dict(arrays, **{name: bumped}))
    assert bitcheck.compare(a, c) == [f"differs: {name}: 1 of {bumped.size} entries"]
    assert bitcheck.main(["compare", str(a), str(c)]) == 1

    del arrays[name]
    np.savez(c, **arrays)
    assert bitcheck.compare(a, c) == [f"only in {a}: {name}"]
