"""Tests for the ASCII figure renderers."""

import pytest

from repro.report import render_cdf, render_gantt, sparkline
from repro.simcore.errors import ConfigurationError
from repro.simcore.trace import Segment, Trace


def segments(*rows) -> Trace:
    return Trace(segments=[Segment(*row) for row in rows])


class TestSparkline:
    def test_constant_series(self):
        line = sparkline([5.0] * 10, width=10)
        assert len(line) == 10
        assert len(set(line)) == 1

    def test_rising_series_rises(self):
        line = sparkline([0.0, 0.5, 1.0], width=3)
        assert line[0] < line[-1]

    def test_empty(self):
        assert sparkline([]) == ""

    def test_compression(self):
        assert len(sparkline(list(range(1000)), width=50)) <= 51

    def test_invalid_width(self):
        with pytest.raises(ConfigurationError):
            sparkline([1.0], width=0)


class TestCdfPlot:
    def _curves(self):
        return {
            "fast": [(50.0, 0.5), (60.0, 0.99), (70.0, 1.0)],
            "slow": [(100.0, 0.5), (5000.0, 0.999), (9000.0, 1.0)],
        }

    def test_contains_series_markers_and_legend(self):
        out = render_cdf(self._curves())
        assert "*" in out and "o" in out
        assert "fast" in out and "slow" in out

    def test_slo_line_drawn(self):
        out = render_cdf(self._curves(), slo=500.0)
        assert "|" in out and "SLO 500" in out

    def test_empty_curves(self):
        assert render_cdf({}) == "(no data)"

    def test_log_axis_bounds_in_footer(self):
        out = render_cdf(self._curves())
        assert "(log)" in out


class TestGantt:
    def test_renders_lanes_and_key(self):
        trace = segments(
            (0, "vm1", "t", 0, 50), (0, "vm2", "t", 50, 100), (1, "vm3", "t", 0, 100)
        )
        out = render_gantt(trace, 0, 100, width=20)
        assert "pcpu0" in out and "pcpu1" in out
        assert "key:" in out
        assert "A=vm1" in out

    def test_majority_wins_bucket(self):
        trace = segments((0, "a", "t", 0, 90), (0, "b", "t", 90, 100))
        out = render_gantt(trace, 0, 100, width=1)
        assert "|A|" in out

    def test_idle_buckets_dotted(self):
        trace = segments((0, "a", "t", 0, 10))
        out = render_gantt(trace, 0, 100, width=10)
        assert "·" in out

    def test_empty_window_rejected(self):
        with pytest.raises(ConfigurationError):
            render_gantt(Trace(), 10, 10)

    def test_no_segments(self):
        assert render_gantt(Trace(), 0, 10) == "(no execution)"
