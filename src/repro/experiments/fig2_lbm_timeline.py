"""Fig. 2 — LBM desynchronization timeline.

The paper runs a D3Q19-SRT LBM solver (302³ cells, 100 ranks on five Emmy
nodes, 1-D decomposition, ≥30 % communication share) for 10⁴ steps and
shows per-rank wall-clock positions at selected time steps against the
nonoverlapping model: a global wave pattern with fundamental wavelength
equal to the system size emerges, the pattern drifts, and the actual
runtime ends up a few percent *faster* than the model.

We reproduce the same study on the saturation simulator.  The default step
count is reduced (the structure emerges within a few hundred steps); pass
``fast=False`` for the full 10⁴.
"""

from __future__ import annotations

from repro.analysis.fourier import skew_profile, skew_spectrum
from repro.cluster import EMMY
from repro.experiments.base import ExperimentResult
from repro.sim.saturation import simulate_saturation
from repro.sim.topology import CommDomain
from repro.viz.tables import format_table
from repro.workloads.lbm import LbmWorkload, lbm_saturation_config

__all__ = ["run", "lbm_model_time_per_step"]


def lbm_model_time_per_step(workload: LbmWorkload, machine=EMMY) -> float:
    """Nonoverlapping Eq. 1-style model for one LBM step.

    Execution: per-rank traffic over the rank's fair share of socket
    bandwidth; communication: bidirectional halo exchange over the network.
    """
    ranks_per_socket = machine.topology.cores_per_socket
    b_rank = machine.b_socket / ranks_per_socket
    t_exec = workload.work_bytes_per_rank / b_rank
    t_comm = 2 * machine.network.transfer_time(int(workload.halo_bytes), CommDomain.INTER_NODE)
    return t_exec + t_comm


def run(fast: bool = True, seed: int = 0) -> ExperimentResult:
    """Regenerate the Fig. 2 data: snapshots, wavelength, runtime deviation."""
    workload = LbmWorkload()
    n_steps = 600 if fast else 10_000
    snap_steps = [s for s in (1, 20, 60, 100, 300, 500, 1000, 5000, n_steps - 1) if s < n_steps]

    machine = EMMY.with_nodes(8)
    cfg = lbm_saturation_config(machine, workload=workload, n_steps=n_steps, seed=seed)
    res = simulate_saturation(cfg)

    t_model = lbm_model_time_per_step(workload, machine)

    rows = []
    snap_data = []
    for s in snap_steps:
        actual = res.completion[:, s]
        model_pos = (s + 1) * t_model
        spread = float(actual.max() - actual.min())
        spec = skew_spectrum(res, s)
        wavelength = spec.dominant_wavelength() if spread > 0 else float("nan")
        rows.append(
            (s, float(actual.mean()), model_pos, spread * 1e3, wavelength)
        )
        snap_data.append(
            {"step": s, "mean_time": float(actual.mean()), "model_time": model_pos,
             "spread": spread, "wavelength": wavelength,
             "profile": skew_profile(res, s)}
        )
    table = format_table(
        ["step", "mean time [s]", "model time [s]", "spread [ms]", "dominant wavelength [ranks]"],
        rows,
    )

    runtime = float(res.completion[:, -1].max())
    model_runtime = n_steps * t_model
    deviation = (model_runtime - runtime) / model_runtime

    late = snap_data[-1]
    notes = [
        "Paper: a global wave pattern with wavelength ~= system size (100 ranks) "
        "emerges by t=500 and drifts; runtime beats the model by ~2.5%.",
        f"Reproduced: dominant wavelength at step {late['step']}: "
        f"{late['wavelength']:.1f} ranks (system size = {workload.n_ranks}).",
        f"Reproduced: runtime {runtime:.3f}s vs model {model_runtime:.3f}s "
        f"-> {'faster' if deviation > 0 else 'slower'} by {abs(deviation) * 100:.2f}%.",
        f"Communication share of model time: "
        f"{(2 * machine.network.transfer_time(int(workload.halo_bytes), CommDomain.INTER_NODE)) / t_model * 100:.0f}% "
        "(paper: >= 30%).",
    ]
    return ExperimentResult(
        name="fig2",
        title="LBM (D3Q19) timeline snapshots vs. nonoverlapping model",
        tables={"snapshots": table},
        data={
            "snapshots": snap_data,
            "runtime": runtime,
            "model_runtime": model_runtime,
            "deviation": deviation,
            "n_steps": n_steps,
        },
        notes=notes,
    )
