"""One observed run: recorder lifecycle, progress wiring, ledger write.

:func:`observe_run` is the CLI-facing composition root of the obs layer.
It enables the telemetry recorder — the run's one instrument stream of
spans, instruments and lifecycle events — for the duration of one run,
opens the root span, subscribes the
:class:`~repro.obs.progress.ProgressRenderer` (when requested, or
automatically on a TTY), and on exit — success *or* failure — writes
the telemetry JSONL when asked, builds the ledger record from the
recorder's snapshot and the :class:`~repro.obs.ledger.RunTracker`'s
provenance, persists it under ``<cache-dir>/runs/``, and prints the
exit summary line.  The summary is rendered from the persisted record
dict, so terminal output and ledger provenance cannot diverge.

Library code never calls this: runners only *emit*; sessions are owned
by whoever owns the terminal (the CLI handlers, or a future daemon).
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from pathlib import Path

from repro import telemetry
from repro.obs.ledger import RunLedger, RunTracker, new_run_id, \
    render_run_summary

__all__ = ["observe_run"]


@contextmanager
def observe_run(kind: str, name: str, cache_dir=None,
                progress: "bool | None" = None, stream=None, echo=print,
                profile: bool = False, telemetry_out=None):
    """Observe one run end to end; yields its :class:`RunTracker`.

    Parameters
    ----------
    kind:
        Run kind (``scenario.sweep``, ``scenario.run``, ``report.run``) —
        the root span's name, the run id's prefix, and the default if no
        ``run.start`` event supplies one.
    name:
        Scenario/report name fallback, same rule.
    cache_dir:
        Where the ledger lives; ``None`` skips persistence (the summary
        line still prints).
    progress:
        ``True``/``False`` force the live renderer on/off; ``None``
        (the default) auto-enables it when ``stream`` is a TTY.
    stream:
        Renderer output stream (default ``sys.stderr``).
    echo:
        Summary sink (default :func:`print`); ``None`` silences it.
    profile:
        ``--profile``: print the telemetry summary at exit and, with a
        ``cache_dir``, write the JSONL to
        ``<cache_dir>/telemetry/<run id>.jsonl``.
    telemetry_out:
        ``--telemetry-out``: also write the JSONL here (implies
        ``profile``).  The ledger record links the written file by its
        absolute path.
    """
    stream = stream if stream is not None else sys.stderr
    if progress is None:
        progress = bool(getattr(stream, "isatty", lambda: False)())
    profile = profile or telemetry_out is not None

    rec = telemetry.enable()
    tracker = RunTracker()
    renderer = None
    if progress:
        from repro.obs.progress import ProgressRenderer

        renderer = ProgressRenderer(stream=stream)
        rec.subscribe(renderer.handle)

    started_unix = time.time()
    root = rec.span(kind)
    status = "ok"
    try:
        with root:
            yield tracker
    except BaseException as exc:
        # ^C (and a polite SystemExit) is an interruption, not a crash:
        # the record persists either way — the `finally` below runs on
        # the way down — but "interrupted" tells `runs ls` (and
        # `--resume`) that the missing tasks were never attempted.
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            status = "interrupted"
        else:
            status = "failed"
        if isinstance(exc, Exception):
            tracker.note_failure(f"{type(exc).__name__}: {exc}")
        raise
    finally:
        # A runner that crashed before its own run.finish still closes
        # the lifecycle, so subscribers always see a complete stream.
        if "run.finish" not in rec.counts():
            rec.emit("run.finish", status=status)
        if renderer is not None:
            if status == "ok":
                renderer.finish()
            else:
                # Failure path: the traceback (or ^C unwind) is about to
                # print — erase the half-painted line instead of leaving
                # it for the diagnostics to concatenate onto.
                renderer.clear()
        telemetry.disable()

        run_id = new_run_id(kind, started_unix)
        snap = rec.snapshot()
        written = []
        if profile:
            targets = [telemetry_out] if telemetry_out is not None else []
            if cache_dir is not None:
                targets.append(Path(cache_dir) / "telemetry"
                               / f"{run_id}.jsonl")
            for target in targets:
                try:
                    written.append(telemetry.write_jsonl(snap, target,
                                                         label=kind))
                except OSError as exc:
                    print(f"[telemetry not written: {exc}]",
                          file=sys.stderr)
            if written:
                tracker.set_telemetry(written[-1])
        record = tracker.record(
            snap, run_id=run_id, status=status, kind=kind, name=name,
            wall_s=root.duration, started_unix=started_unix,
            finished_unix=time.time(),
        )
        path = None
        if cache_dir is not None:
            try:
                path = RunLedger(cache_dir).append(record)
            except OSError as exc:
                # An unwritable cache dir must not mask the run's own
                # outcome; the summary line still prints.
                print(f"[run not recorded: {exc}]", file=sys.stderr)
        if echo is not None:
            if profile:
                echo(telemetry.render_summary(snap))
                for p in written:
                    echo(f"[telemetry written to {p}]")
            echo(render_run_summary(record))
            if path is not None:
                echo(f"[run recorded in {path}]")
