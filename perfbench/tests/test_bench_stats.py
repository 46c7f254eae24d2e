import json
from pathlib import Path

import pytest

from stats import list_schedule, percentile, summarize, tail_percentile, valid_metric_name

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_summarize_reports_tail_only_when_supported():
    values = [float(i) for i in range(1, 101)]
    s = summarize(values)
    assert s["n"] == 100 and s["median"] == pytest.approx(50.5)
    assert s["tail_percentile"] == 90.0 and s["tail_value"] == 90.0
    assert sum(v > s["tail_value"] for v in values) == 10
    assert summarize([1.0, 2.0])["tail_percentile"] is None


def test_percentile_is_nearest_rank():
    assert percentile([3.0, 1.0, 2.0], 50.0) == 2.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.0
    assert percentile([1.0], 99.9) == 1.0


@pytest.mark.parametrize("name", ["wall_s", "grid.average_us.D800", "solver.accepted_steps.desk.q005_states",
                                  "cli.sweep_overhead_s.fine_mesh", "0-x", "a" * 64])
def test_valid_metric_names(name):
    assert valid_metric_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "wall s", "a/b", "a" * 65, "naïve", "x\n"])
def test_invalid_metric_names(name):
    assert not valid_metric_name(name)


def test_every_declared_metric_name_is_valid_and_matches_the_code():
    from layers import metric_specs
    from run import END_TO_END

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert all(valid_metric_name(n) for n in names)
    assert len(names) == len(set(names))
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == metric_specs()


def test_list_schedule_matches_pool_assignment():
    assert list_schedule([5.0, 1.0, 1.0, 1.0], 2) == 5.0
    assert list_schedule([1.0, 1.0, 3.0], 2) == 4.0
    assert list_schedule([2.0], 2) == 2.0
