"""Cluster descriptions: the paper's testbeds as calibrated machine specs."""

from repro import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(__name__, {
    ".machine": ("CpuSpec", "MachineSpec"),
    ".presets": ("EMMY", "MACHINES", "MEGGIE", "SIMULATED", "get_machine",
                 "noise_for_smt"),
})
