"""Progress renderer: line content, ETA math, clearing, purity."""

import io

from repro.obs.progress import ProgressRenderer, format_eta
from repro.telemetry import Recorder


def feed(renderer, *events_in):
    """Drive a renderer through a recorder so sequencing matches
    production."""
    rec = Recorder()
    rec.subscribe(renderer.handle)
    for name, data in events_in:
        rec.emit(name, **data)
    return rec


class TestFormatEta:
    def test_seconds(self):
        assert format_eta(42.4) == "42s"

    def test_minutes(self):
        assert format_eta(190) == "3m10s"

    def test_hours(self):
        assert format_eta(3720) == "1h02m"

    def test_negative_clamps_to_zero(self):
        assert format_eta(-5) == "0s"


class TestRenderer:
    def test_line_shows_progress_cache_and_label(self):
        out = io.StringIO()
        r = ProgressRenderer(stream=out, interval=0)
        feed(r,
             ("run.start", {"kind": "scenario.sweep",
                            "name": "campaign_rate_sweep", "n_tasks": 4}),
             ("task.done", {"index": 0}),
             ("task.cache_hit", {"index": 1}))
        line = r._line()
        assert "scenario.sweep campaign_rate_sweep" in line
        assert "2/4 (50%)" in line
        assert "cache 50%" in line
        assert "task/s" in line

    def test_failed_tasks_surface_in_the_line(self):
        r = ProgressRenderer(stream=io.StringIO(), interval=0)
        feed(r,
             ("run.start", {"n_tasks": 2}),
             ("task.failed", {"index": 0}))
        assert "1 failed" in r._line()

    def test_report_phase_is_shown(self):
        r = ProgressRenderer(stream=io.StringIO(), interval=0)
        feed(r,
             ("run.start", {"kind": "report.run", "n_tasks": 8}),
             ("report.phase", {"phase": "metrics"}))
        assert "phase=metrics" in r._line()

    def test_eta_uses_mean_throughput_then_ewma(self):
        r = ProgressRenderer(stream=io.StringIO(), interval=0)
        feed(r, ("run.start", {"n_tasks": 10}))
        assert r._eta() is None  # nothing done yet
        feed(r, ("task.done", {"index": 0}))
        assert r._eta() is not None  # mean-throughput fallback
        r._gap_ewma = 0.5
        r.done = 4
        assert r._eta() == 0.5 * 6

    def test_eta_none_once_complete(self):
        r = ProgressRenderer(stream=io.StringIO(), interval=0)
        r.total = 2
        r.done = 2
        assert r._eta() is None

    def test_paint_rewrites_one_line_and_finish_ends_it(self):
        out = io.StringIO()
        r = ProgressRenderer(stream=out, interval=0)
        feed(r,
             ("run.start", {"n_tasks": 2}),
             ("task.done", {"index": 0}))
        text = out.getvalue()
        assert "\n" not in text
        assert text.startswith("\r")
        r.finish()
        # The final state stays in the scrollback, line terminated.
        final = out.getvalue()
        assert final.endswith("\n")
        assert "1/2" in final.rsplit("\r", 1)[-1]

    def test_finish_on_untouched_renderer_writes_nothing(self):
        out = io.StringIO()
        ProgressRenderer(stream=out, interval=0).finish()
        assert out.getvalue() == ""

    def test_clear_erases_the_line_for_diagnostics(self):
        out = io.StringIO()
        r = ProgressRenderer(stream=out, interval=0)
        feed(r,
             ("run.start", {"n_tasks": 2}),
             ("task.done", {"index": 0}))
        painted = len(out.getvalue().rsplit("\r", 1)[-1])
        r.clear()
        # Erase = overwrite with spaces, then park the cursor at col 0:
        # whatever prints next (a traceback) starts on a clean line.
        assert out.getvalue().endswith("\r" + " " * painted + "\r")
        before = out.getvalue()
        r.clear()  # idempotent: nothing left to erase
        assert out.getvalue() == before

    def test_shrinking_line_is_padded_clean(self):
        out = io.StringIO()
        r = ProgressRenderer(stream=out, interval=0)
        r._paint("a long progress line")
        r._paint("short")
        last = out.getvalue().rsplit("\r", 1)[-1]
        assert last.startswith("short")
        assert len(last) == len("a long progress line")

    def test_throttle_skips_rapid_repaints(self):
        out = io.StringIO()
        r = ProgressRenderer(stream=out, interval=3600.0)
        r._last_paint = r._t0  # pretend we just painted
        feed(r,
             ("run.start", {"n_tasks": 4}),
             ("task.done", {"index": 0}))
        assert out.getvalue() == ""

    def test_renderer_is_a_pure_consumer(self):
        """Attaching the renderer never mutates the event stream."""
        plain = Recorder()
        plain.emit("run.start", n_tasks=1)
        plain.emit("task.done", index=0)

        rendered = Recorder()
        rendered.subscribe(
            ProgressRenderer(stream=io.StringIO(), interval=0).handle)
        rendered.emit("run.start", n_tasks=1)
        rendered.emit("task.done", index=0)
        assert rendered.identity() == plain.identity()
