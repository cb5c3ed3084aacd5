"""Speed probe that puts timings on a steady scale.

The benchmark runs on a few cores of a shared host whose speed drifts:
each core, independently of the others, switches every few seconds
between a fast state and one about 30% slower, in CPU time as much as in
wall time (another tenant's load slows the core itself, it does not only
take it away).  A 20 s operation cannot average such phases out over one
run, so a raw time says as much about the host as about the program.

:func:`speed` times a fixed kernel that belongs to the benchmark, not
to the program, and divides its time on a reference host by it.  A
steady time is a wall time multiplied by the speed probed on the same
core at the same moment: the operation's time on the reference host
(this 2-CPU box in its fast state).  A change to the program moves the
steady time as it moves the wall time; a slow phase of the host slows
the probe as well and cancels out.  The raw wall times are kept in the
run's detail record.

A :class:`Sampler` probes from a thread every ``PERIOD_S`` while the
work runs.  Two ways to use it:

- in the measured process, pinned to one core: the probe holds the
  interpreter lock for about 2 ms (less than the 5 ms after which a
  waiting thread may take it), so it runs between the program's own
  steps on the program's own core, and its own time is taken out of
  every interval it scales;
- in the benchmark's driver, while an operation keeps every core busy
  with several processes: the probe then runs on whichever core frees
  up first, and the operation's wall time is scaled by the mean speed.
  (A single-process operation cannot be sampled so: the probe would run
  on the idle core, whose speed drifts independently.)

Run as a script -- ``python3 perfbench/calibrate.py OUT.json -m MODULE
[ARG...]`` or ``... OUT.json -c 'import MODULE'`` -- it runs the module
or statement like ``python3 -m``/``-c`` would, pinned and sampled, and
writes the wall and steady time of that work to ``OUT.json``.  Before
the timed work starts it has imported a few small standard-library
modules and never NumPy, so an import is measured cold.
"""

from __future__ import annotations

import os
import runpy
import sys
import threading
import time

__all__ = ["PERIOD_S", "REFERENCE_S", "Sampler", "pin_to_current_core",
           "speed", "steady"]

#: Kernel times of the reference host: 2 shared cores, fast state.
REFERENCE_S = {"python": 0.00018, "mixed": 0.00048}
PERIOD_S = 0.2
PROBE_REPEATS = 3

_vector = None


def _python_kernel() -> int:
    acc = 0
    for i in range(3000):
        acc += (i * i) % 7
    return acc


def _mixed_kernel(np) -> int:
    global _vector
    if _vector is None:
        _vector = np.linspace(0.0, 1.0, 64)
    x = _vector
    for _ in range(150):
        x = np.minimum(x * 1.0001 + 0.5, 1e6)
    return _python_kernel()


def _numpy():
    """NumPy once the program has imported it completely, else ``None``."""
    np = sys.modules.get("numpy")
    if getattr(getattr(np, "__spec__", None), "_initializing", True):
        return None
    return np if hasattr(np, "minimum") else None


def speed() -> float:
    """Speed of the current core relative to the reference host.

    Times the kernel :data:`PROBE_REPEATS` times and divides its
    reference time by the median.  The kernel mixes small-array NumPy
    calls (what the simulators run) with a pure-Python loop, which
    tracked a simulator's drift best of the kernels tried; before the
    measured program has imported NumPy it is the loop alone, so the
    probe never imports anything the program would import itself.
    """
    np = _numpy()
    kind = "python" if np is None else "mixed"
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        _python_kernel() if np is None else _mixed_kernel(np)
        times.append(time.perf_counter() - t0)
    return REFERENCE_S[kind] / sorted(times)[len(times) // 2]


def steady(wall_s: float, *speeds: float) -> float:
    """``wall_s`` on the reference host, given speeds probed during it."""
    return wall_s * sum(speeds) / len(speeds)


def pin_to_current_core() -> int:
    """Pin this process to the core it runs on; returns the core."""
    with open("/proc/self/stat") as fh:
        core = int(fh.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {core})
    return core


class Sampler:
    """Probes the speed of a core from a daemon thread every ``PERIOD_S``.

    Use as a context manager around the work.  In a process pinned with
    :func:`pin_to_current_core`, :meth:`steady` then scales any interval
    of the work on that core.  ``samples`` holds ``(start, end, speed)``,
    one taken on entry, on exit and every period between.
    """

    def __init__(self) -> None:
        self.samples: "list[tuple[float, float, float]]" = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "Sampler":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    def _sample(self) -> None:
        t0 = time.perf_counter()
        s = speed()
        self.samples.append((t0, time.perf_counter(), s))

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            self._sample()

    def mean_speed(self) -> float:
        """Mean speed over every sample."""
        return sum(s for *_, s in self.samples) / len(self.samples)

    def steady(self, t0: float, t1: float) -> float:
        """Steady time of the work between ``t0`` and ``t1``.

        Probes inside the interval scale it and their own time is taken
        out; an interval shorter than the period uses the probe nearest
        to it.
        """
        inside = [s for s in self.samples if t0 <= s[0] and s[1] <= t1]
        if not inside:
            mid = (t0 + t1) / 2
            inside = [min(self.samples, key=lambda s: abs(s[0] - mid))]
            stolen = 0.0
        else:
            stolen = sum(end - start for start, end, _ in inside)
        return steady(t1 - t0 - stolen, *(s for _, _, s in inside))


def main(argv: "list[str]") -> int:
    out, flag, target, *args = argv
    sys.path[0] = os.getcwd()  # as python3 -m / -c set it
    pin_to_current_core()
    rc = 0
    with Sampler() as sampler:
        t0 = time.perf_counter()
        try:
            if flag == "-m":
                sys.argv = [target, *args]
                runpy.run_module(target, run_name="__main__", alter_sys=True)
            else:
                exec(compile(target, "-c", "exec"), {"__name__": "__main__"})
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        t1 = time.perf_counter()
    import json

    with open(out, "w") as fh:
        json.dump({"rc": rc, "wall_s": t1 - t0,
                   "steady_s": sampler.steady(t0, t1)}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
