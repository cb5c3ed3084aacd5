"""The compute-bound divide workload (Sec. III-B).

The paper's noise-characterization benchmark is "a large number of
back-to-back double-precision divide instructions (``vdivpd``), the
throughput of which is exactly one instruction per 28 clock cycles on Ivy
Bridge and one instruction per 16 clock cycles on Broadwell".  Because the
ideal duration is exactly known, any measured excess is noise.

The simulator uses the analytic duration model: a chain of ``n``
divides takes exactly ``n * vdivpd_cycles / clock_hz`` seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.machine import CpuSpec

__all__ = ["DivideWorkload"]


@dataclass(frozen=True)
class DivideWorkload:
    """A fixed-length chain of dependent double-precision divides.

    Parameters
    ----------
    cpu:
        CPU constants giving the ``vdivpd`` reciprocal throughput.
    n_instructions:
        Chain length.  Use :meth:`for_duration` to size a phase.
    """

    cpu: CpuSpec
    n_instructions: int

    def __post_init__(self) -> None:
        if self.n_instructions < 1:
            raise ValueError(f"n_instructions must be >= 1, got {self.n_instructions}")

    @classmethod
    def for_duration(cls, cpu: CpuSpec, t_exec: float) -> "DivideWorkload":
        """Size the divide chain so the ideal duration is ``t_exec`` seconds."""
        if t_exec <= 0:
            raise ValueError(f"t_exec must be > 0, got {t_exec}")
        per_instr = cpu.vdivpd_cycles / cpu.clock_hz
        return cls(cpu=cpu, n_instructions=max(1, round(t_exec / per_instr)))

    @property
    def ideal_duration(self) -> float:
        """Exact execution time in seconds on a noise-free machine."""
        return self.n_instructions * self.cpu.vdivpd_cycles / self.cpu.clock_hz
