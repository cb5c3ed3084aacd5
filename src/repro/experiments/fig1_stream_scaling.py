"""Fig. 1 — STREAM triad strong scaling: model vs. (simulated) measurement.

Reproduces the three panels of the paper's motivating experiment:

- (a) total and execution-only performance on 1–9 full sockets (PPN=20)
  against the Eq. 1 nonoverlapping model and the execution-only model,
- (b) the node-level closeup (1–20 processes on one node),
- (c) one process per node on 1–16 nodes.

Expected shape (not absolute numbers): with full sockets the *measured*
execution performance exceeds the naive linear-scaling execution model
because system noise desynchronizes the ranks, which automatically
overlaps communication with computation and relieves the shared memory
bandwidth; with PPN=1 the model is accurate (no saturation to exploit).
"""

from __future__ import annotations

from repro.analysis.statistics import RunStatistics
from repro.cluster import EMMY
from repro.experiments.base import ExperimentResult
from repro.models.hockney import triad_strong_scaling_model
from repro.sim.saturation import simulate_saturation
from repro.viz.tables import format_table
from repro.workloads.stream import TriadWorkload, triad_saturation_config

__all__ = ["run", "simulate_triad_point"]


def simulate_triad_point(
    n_sockets: int,
    ppn: int,
    n_steps: int,
    seed: int,
    workload: TriadWorkload | None = None,
    n_ranks: int | None = None,
):
    """One strong-scaling point: returns (total perf, exec-only perf) in flop/s."""
    if workload is None:
        workload = TriadWorkload()
    machine = EMMY.with_nodes(max(16, n_sockets))
    cfg = triad_saturation_config(
        machine, n_sockets=n_sockets, ppn=ppn, n_steps=n_steps,
        workload=workload, n_ranks=n_ranks, seed=seed,
    )
    res = simulate_saturation(cfg)
    # Discard a warm-up third: desynchronization needs time to develop.
    warm = max(1, n_steps // 3)
    t_iter = (res.completion[:, -1].max() - res.completion[:, warm - 1].max()) / (
        n_steps - warm
    )
    exec_time = (res.exec_end - res.exec_start)[:, warm:].mean()
    p_total = workload.performance(t_iter)
    p_exec = workload.performance(exec_time)
    return p_total, p_exec


def _model_performance(n_sockets: int, workload: TriadWorkload, b_mem: float, b_net: float):
    """Eq. 1 total model and execution-only model, in flop/s."""
    t_total = triad_strong_scaling_model(
        n_sockets, v_mem=workload.v_mem, v_net=workload.v_net, b_mem=b_mem, b_net=b_net
    )
    t_exec = workload.v_mem / (n_sockets * b_mem)
    return workload.performance(t_total), workload.performance(t_exec)


def run(fast: bool = True, seed: int = 0) -> ExperimentResult:
    """Regenerate the Fig. 1 data tables."""
    workload = TriadWorkload()
    b_mem, b_net = EMMY.b_socket, 3e9
    # The desynchronization instability that produces the paper's
    # better-than-model execution performance needs a few hundred
    # iterations to develop (compare Fig. 2, where the pattern emerges
    # between steps 20 and 60 at ~20 ms per step).
    n_steps = 400 if fast else 1000
    n_runs = 2 if fast else 5

    # ---- (a) full sockets, PPN = 20 ------------------------------------
    sockets = list(range(1, 10))
    rows_a = []
    data_a = []
    for n in sockets:
        totals, execs = [], []
        for r in range(n_runs):
            pt, pe = simulate_triad_point(n, ppn=20, n_steps=n_steps, seed=seed + r)
            totals.append(pt)
            execs.append(pe)
        st, se = RunStatistics.from_samples(totals), RunStatistics.from_samples(execs)
        m_total, m_exec = _model_performance(n, workload, b_mem, b_net)
        rows_a.append(
            (n, st.median / 1e9, se.median / 1e9, se.minimum / 1e9, se.maximum / 1e9,
             m_total / 1e9, m_exec / 1e9)
        )
        data_a.append(
            {"sockets": n, "p_total": st.median, "p_exec": se.median,
             "p_exec_min": se.minimum, "p_exec_max": se.maximum,
             "model_total": m_total, "model_exec": m_exec}
        )
    table_a = format_table(
        ["sockets", "meas total [GF/s]", "meas exec [GF/s]", "exec min", "exec max",
         "model total [GF/s]", "model exec [GF/s]"],
        rows_a,
    )

    # ---- (b) node-level closeup: 2..20 processes on one node -----------
    rows_b = []
    data_b = []
    for p in (2, 4, 6, 8, 10, 14, 20):
        sockets_used = 1 if p <= 10 else 2
        pt, _ = simulate_triad_point(
            n_sockets=sockets_used, ppn=p, n_ranks=p,
            n_steps=n_steps, seed=seed,
        )
        m_total, _ = _model_performance(sockets_used, workload, b_mem, b_net)
        rows_b.append((p, pt / 1e9, m_total / 1e9))
        data_b.append({"processes": p, "p_total": pt, "model_total": m_total})
    table_b = format_table(
        ["processes", "meas total [GF/s]", "model total [GF/s]"], rows_b
    )

    # ---- (c) one process per node, 2..16 nodes --------------------------
    rows_c = []
    data_c = []
    node_counts = [2, 4, 8, 12, 16] if fast else [2, 4, 6, 8, 10, 12, 14, 16]
    for nn in node_counts:
        pt, _ = simulate_triad_point(n_sockets=nn, ppn=1, n_steps=n_steps, seed=seed)
        # PPN=1: one rank per node, socket bandwidth not saturated — the
        # model uses the single-core bandwidth.
        t_model = workload.v_mem / (nn * EMMY.b_core) + 2 * workload.v_net / b_net
        m_total = workload.performance(t_model)
        rows_c.append((nn, pt / 1e9, m_total / 1e9))
        data_c.append({"nodes": nn, "p_total": pt, "model_total": m_total})
    table_c = format_table(["nodes (PPN=1)", "meas total [GF/s]", "model total [GF/s]"], rows_c)

    # Headline observation of the paper:
    overlap_gain = [d["p_exec"] / d["model_exec"] for d in data_a if d["sockets"] >= 4]
    ppn1_err = [abs(d["p_total"] - d["model_total"]) / d["model_total"] for d in data_c]

    notes = [
        "Paper: measured execution performance is 'so much higher than the "
        "prediction' at multi-socket scale due to noise-induced desync/overlap.",
        f"Reproduced: exec/model ratio at >=4 sockets: "
        f"{min(overlap_gain):.2f}..{max(overlap_gain):.2f} (>1 means overlap gain).",
        "Paper: with PPN=1 'the model actually delivers a good prediction'.",
        f"Reproduced: PPN=1 relative model error {max(ppn1_err) * 100:.1f}% max.",
    ]
    return ExperimentResult(
        name="fig1",
        title="MPI STREAM triad strong scaling: model vs. simulated measurement",
        tables={
            "(a) sockets scan, PPN=20": table_a,
            "(b) node-level closeup": table_b,
            "(c) one process per node": table_c,
        },
        data={"a": data_a, "b": data_b, "c": data_c},
        notes=notes,
    )
