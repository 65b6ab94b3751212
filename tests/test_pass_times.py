"""``scripts/pass_times.py`` times a workload's passes on two checkouts."""

import importlib.util
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_script():
    spec = importlib.util.spec_from_file_location("pass_times", ROOT / "scripts" / "pass_times.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_checkout_against_itself(capsys):
    # one seed makes one pair, A first; every median is a positive time, and
    # each child's passes take minor faults and no negative system time
    script = load_script()
    assert script.main([str(ROOT), str(ROOT), "--workload", "code8", "--seeds", "1", "--passes", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == script.HEADER
    seed, first, a_ms, b_ms, a_flt, b_flt, a_sys, b_sys = lines[1].split()
    assert (seed, first) == ("1", "A") and float(a_ms) > 0 and float(b_ms) > 0
    assert float(a_flt) > 0 and float(b_flt) > 0 and float(a_sys) >= 0 and float(b_sys) >= 0
    assert re.fullmatch(r"A: median \d+\.\d\d ms \[\d+\.\d\d, \d+\.\d\d\], "
                        r"\d+\.\d minor faults, \d+\.\d\d sys ms per pass", lines[2])
    assert lines[2] == f"A: median {a_ms} ms [{a_ms}, {a_ms}], {a_flt} minor faults, {a_sys} sys ms per pass"
    assert lines[3] == f"B: median {b_ms} ms [{b_ms}, {b_ms}], {b_flt} minor faults, {b_sys} sys ms per pass"
    assert re.fullmatch(r"B faster in [01] of 1 pairs; median [+-]\d+\.\d%", lines[4])
    assert len(lines) == 5


def test_summary_of_alternating_pairs():
    script = load_script()
    pairs = [{"seed": s, "first": "AB"[i % 2], "a_s": a, "b_s": b,
              "a_faults": 2464.0 + i, "b_faults": 2078.0 - i, "a_sys_ms": 6.0 * i, "b_sys_ms": 5.0}
             for i, (s, a, b) in enumerate([(1, 0.010, 0.008), (2, 0.020, 0.022), (3, 0.030, 0.024)])]
    assert script.pair_line(pairs[1]) == "   2     B   20.00   22.00    2465.0    2077.0      6.00      5.00"
    assert script.summary(pairs) == [
        "A: median 20.00 ms [15.00, 25.00], 2465.0 minor faults, 6.00 sys ms per pass",
        "B: median 22.00 ms [15.00, 23.00], 2077.0 minor faults, 5.00 sys ms per pass",
        "B faster in 2 of 3 pairs; median +10.0%",
    ]
