#!/usr/bin/env python
"""LBM: the Fig. 2 timeline study on the saturation simulator.

The production-scale LBM (302**3 cells, 100 ranks) develops a global
desynchronization pattern whose wavelength approaches the system size, and
finishes *earlier* than the nonoverlapping model predicts.

Run:  python examples/lbm_simulation.py
"""

from repro.analysis import dominant_wavelength, skew_profile
from repro.cluster import EMMY
from repro.experiments.fig2_lbm_timeline import lbm_model_time_per_step
from repro.sim import simulate_saturation
from repro.workloads import LbmWorkload, lbm_saturation_config

# --- part 2: the Fig. 2 timeline study -----------------------------------
print("Part 2: production-scale proxy (302^3 cells, 100 ranks) on the simulator")
workload = LbmWorkload()
machine = EMMY.with_nodes(8)
N_STEPS = 600

cfg = lbm_saturation_config(machine, workload=workload, n_steps=N_STEPS, seed=0)
res = simulate_saturation(cfg)
t_model = lbm_model_time_per_step(workload, machine)

print(f"  working set       : {workload.working_set_bytes / 1e9:.1f} GB "
      "(paper: > 8 GB)")
print(f"\n  {'step':>5} | {'spread [ms]':>11} | {'wavelength [ranks]':>18}")
for step in (1, 20, 60, 100, 300, N_STEPS - 1):
    profile = skew_profile(res, step)
    spread = profile.max() - profile.min()
    wl = dominant_wavelength(res, step)
    print(f"  {step:>5} | {spread * 1e3:11.2f} | {wl:18.1f}")

runtime = res.completion[:, -1].max()
model_runtime = N_STEPS * t_model
print(f"\n  runtime {runtime:.2f} s vs model {model_runtime:.2f} s "
      f"({(model_runtime - runtime) / model_runtime:+.1%} faster than model)")
print("  A long-wavelength desync pattern emerges and the code beats the")
print("  nonoverlapping model — the paper's Fig. 2 observation.")
