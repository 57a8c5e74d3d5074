"""ProgressReporter: slice accounting, rendering, hostile clocks and totals.

The reporter feeds ``run-all``'s live ETA line.  It counts claimed,
done, computed, cached and failed slices honestly, and a zero/negative
total or a clock stepping backwards (NTP slew, frozen test clocks) must
degrade to clamped numbers, never to a ZeroDivisionError or a negative
ETA.
"""

import io

from repro.experiments.runner import ProgressReporter


class FakeClock:
    """A manually-stepped clock that can move backwards."""

    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


def make_reporter(total, clock=None):
    return ProgressReporter(total=total, stream=io.StringIO(),
                            clock=clock)


class TestZeroAndNegativeTotals:
    def test_zero_total_eta_is_none_and_line_renders(self):
        reporter = make_reporter(0)
        assert reporter.eta_seconds() is None
        assert "0/0" in reporter.line()

    def test_zero_total_survives_finishes(self):
        # More completions than slices (total underestimated): every
        # accessor still answers.
        reporter = make_reporter(0)
        reporter.claim("extra")
        reporter.finish("extra")
        assert reporter.eta_seconds() is None
        assert "1/0" in reporter.summary()

    def test_negative_total_clamps_to_zero(self):
        reporter = make_reporter(-3)
        assert reporter.total == 0
        assert reporter.eta_seconds() is None

    def test_done_beyond_total_clamps_eta_to_zero(self):
        clock = FakeClock()
        reporter = make_reporter(2, clock=clock)
        for name in ("a", "b", "c"):
            reporter.finish(name)
        clock.now += 5.0
        assert reporter.eta_seconds() == 0.0


class TestNonMonotonicClocks:
    def test_backwards_clock_clamps_eta_to_zero(self):
        clock = FakeClock(now=100.0)
        reporter = make_reporter(4, clock=clock)
        reporter.finish("first")
        clock.now = 42.0  # the clock steps backwards mid-run
        eta = reporter.eta_seconds()
        assert eta is not None and eta == 0.0

    def test_backwards_clock_clamps_summary_elapsed(self):
        clock = FakeClock(now=100.0)
        reporter = make_reporter(1, clock=clock)
        clock.now = 0.0
        assert "in 0.00s" in reporter.summary()

    def test_backwards_clock_clamps_timed_elapsed(self):
        clock = FakeClock(now=100.0)
        stream = io.StringIO()
        reporter = ProgressReporter(total=1, stream=stream, clock=clock)
        with reporter.timed("slice"):
            clock.now = 10.0
        assert "-" not in stream.getvalue().split("slice", 1)[1].split("s")[0]
        assert reporter.done == 1

    def test_frozen_clock_reports_zero_eta_progressing(self):
        clock = FakeClock()
        reporter = make_reporter(2, clock=clock)
        reporter.finish("a")
        assert reporter.eta_seconds() == 0.0


class TestExistingContractPreserved:
    def test_eta_none_before_any_completion(self):
        reporter = make_reporter(5)
        assert reporter.eta_seconds() is None

    def test_eta_zero_when_complete(self):
        clock = FakeClock()
        reporter = make_reporter(2, clock=clock)
        reporter.finish("a")
        clock.now += 1.0
        reporter.finish("b")
        assert reporter.eta_seconds() == 0.0

    def test_real_clock_default_still_works(self):
        reporter = make_reporter(2)
        reporter.finish("a")
        eta = reporter.eta_seconds()
        assert eta is not None and eta >= 0.0


class TestProgressReporter:
    def test_slice_accounting(self):
        stream = io.StringIO()
        progress = ProgressReporter(total=3, stream=stream)
        assert progress.eta_seconds() is None
        progress.claim("a")
        progress.finish("a", "ok", elapsed=0.01)
        progress.claim("b")
        progress.finish("b", "cached")
        progress.claim("c")
        progress.finish("c", "failed")
        assert (progress.claimed, progress.done) == (3, 3)
        assert progress.computed == 2  # ok + failed both ran
        assert progress.cached == 1
        assert progress.failed == 1
        assert progress.eta_seconds() == 0.0

    def test_plain_stream_keeps_full_history(self):
        stream = io.StringIO()
        progress = ProgressReporter(total=2, label="suite", stream=stream)
        progress.claim("fig12")
        progress.finish("fig12", "ok", elapsed=0.5)
        lines = stream.getvalue().splitlines()
        assert any("claimed fig12" in line for line in lines)
        assert any(line.startswith("fig12") and "ok" in line
                   for line in lines)
        assert all("\r" not in line for line in lines)
        assert "[suite] claimed 1/2" in stream.getvalue()

    def test_line_and_summary_render(self):
        progress = ProgressReporter(total=4, stream=io.StringIO())
        progress.claim("a")
        progress.finish("a", "ok")
        line = progress.line()
        assert "claimed 1/4" in line and "done 1/4" in line
        assert "eta" in line
        summary = progress.summary()
        assert summary.startswith("1/4 slices")
        assert "1 computed, 0 cached" in summary

    def test_disabled_reporter_stays_silent(self):
        stream = io.StringIO()
        progress = ProgressReporter(total=1, stream=stream, enabled=False)
        progress.claim("a")
        progress.finish("a", "ok")
        assert stream.getvalue() == ""

    def test_timed_records_elapsed(self):
        stream = io.StringIO()
        progress = ProgressReporter(total=1, stream=stream)
        with progress.timed("fig12", "ok"):
            pass
        assert progress.done == 1
        assert "fig12" in stream.getvalue()
