import pytest

import importtime

REPORT = """\
import time: self [us] | cumulative | imported package
import time:       120 |        120 |   _io
import time:      1168 |       1168 |       fpufronts.errors
import time:       904 |     922552 |         scipy.interpolate
import time:     10332 |     932883 |       fpufronts.potentials
import time:     12393 |    1220551 |     fpufronts.action
import time:       979 |    1239799 |   fpufronts
import time:      6290 |    1246089 | fpufronts.cli
some other line on stderr
"""


def test_parse_reads_times_and_depth():
    entries = importtime.parse(REPORT)
    assert [e.module for e in entries] == ["_io", "fpufronts.errors", "scipy.interpolate",
                                           "fpufronts.potentials", "fpufronts.action",
                                           "fpufronts", "fpufronts.cli"]
    pot = entries[3]
    assert (pot.self_us, pot.cumulative_us, pot.depth) == (10332, 932883, 3)
    assert entries[2].depth == 4 and entries[-1].depth == 0 and entries[0].depth == 1


def test_cumulative_and_package_totals():
    entries = importtime.parse(REPORT)
    assert importtime.cumulative_s(entries, "fpufronts.potentials") == pytest.approx(0.932883)
    # Only the top-level entry counts; nested fpufronts entries are inside it.
    assert importtime.package_total_s(entries, "fpufronts") == pytest.approx(1.246089)
    with pytest.raises(KeyError):
        importtime.cumulative_s(entries, "numpy")


def test_package_total_adds_separate_top_level_imports():
    text = ("import time:       10 |        500 | fpufronts\n"
            "import time:       20 |        300 | fpufronts.cli\n"
            "import time:       30 |        900 | fpufrontsx\n")
    assert importtime.package_total_s(importtime.parse(text), "fpufronts") == pytest.approx(0.0008)
