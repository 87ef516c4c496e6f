"""The A/B script's summary of paired benchmark results, on canned result
lines; no benchmark or git process is started."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).parent.parent


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("bench_ab", ROOT / "bench" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result_line(pass_s, rss, failed=0):
    """A last line as ``perfbench/run.py`` prints it."""
    metrics = {"pass_s": {"value": pass_s, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return json.dumps({"correct": failed == 0, "attempted": 100, "failed": failed,
                       "metrics": metrics})


END_TO_END = [{"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.25},
              {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.25}]


def test_summary_of_canned_pairs(ab):
    base = [0.150, 0.152, 0.154, 0.156, 0.158, 0.160, 0.151, 0.153, 0.155, 0.157]
    head = [0.135] * 9 + [0.170]  # faster in nine pairs of ten
    pairs = [(json.loads(result_line(b, 21.0)), json.loads(result_line(h, 30.0 if i else 21.0)))
             for i, (b, h) in enumerate(zip(base, head))]
    time, rss = ab.summarize(END_TO_END, pairs)
    assert time["metric"] == "pass_s" and time["pairs"] == 10
    assert time["base"] == pytest.approx(0.1545) and time["head"] == 0.135
    assert (time["q1"], time["q3"]) == pytest.approx((0.15225, 0.15675))
    assert time["wins"] == 9 and time["gain"] and not time["past_bound"]
    # nine pairs worse by 43 %, one tie, which counts for neither side
    assert rss["base"] == 21.0 and rss["head"] == 30.0 and rss["wins"] == 0
    assert not rss["gain"] and rss["past_bound"]
    lines = ab.format_rows([time, rss])
    assert len(lines) == 3 and lines[1].split()[:5] == ["pass_s", "0.1545", "0.135", "-12.6%",
                                                         "0.1522..0.1568"]
    assert lines[1].endswith("9/10   gain") and lines[2].endswith("past bound")


def test_a_gain_needs_nine_wins_in_ten_and_a_median_past_the_base_spread(ab):
    def rows(base, head):
        pairs = [(json.loads(result_line(b, 1.0)), json.loads(result_line(h, 1.0)))
                 for b, h in zip(base, head)]
        return ab.summarize(END_TO_END[:1], pairs)[0]

    # eight wins of ten
    assert not rows([1.0] * 10, [0.9] * 8 + [1.1] * 2)["gain"]
    # ten wins, but the medians differ by less than the base's quartile spread
    assert not rows([1.0, 1.2] * 5, [0.99, 1.19] * 5)["gain"]
    assert rows([1.0, 1.02] * 5, [0.9, 0.92] * 5)["gain"]
    # one pair: its quartiles are its value
    assert ab.quartiles([2.0]) == (2.0, 2.0)
