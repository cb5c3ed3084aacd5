"""The paper's Eq. 1: a nonoverlapping runtime model with a Hockney-style
communication term.

Eq. 1 of the paper is the optimistic nonoverlapping model for the MPI
STREAM triad strong-scaling experiment:

.. math::

    T(n) = \\frac{V_{mem}}{n\\,b_{mem}} + \\frac{2 V_{net}}{b_{net}}

(n sockets, total working set V_mem split over all ranks, each rank
exchanging V_net with both ring neighbors per iteration).  Its failure —
measured execution performance *above* the model line — is the paper's
motivation (Fig. 1).
"""

from __future__ import annotations

__all__ = ["triad_strong_scaling_model"]


def triad_strong_scaling_model(
    n_sockets: int,
    v_mem: float = 1.2e9,
    v_net: float = 2e6,
    b_mem: float = 40e9,
    b_net: float = 3e9,
) -> float:
    """Eq. 1: predicted seconds per compute-communicate cycle.

    Parameters (defaults = the paper's Fig. 1 setup)
    ----------
    n_sockets:
        Number of sockets, each running its share of the ranks.
    v_mem:
        Total working set in bytes (1.2 GB: 3 arrays × 5·10⁷ doubles).
    v_net:
        Bytes exchanged with *each* ring neighbor per cycle (2 MB).
    b_mem:
        Per-socket memory bandwidth (≈40 GB/s on Ivy Bridge).
    b_net:
        Asymptotic node-to-node network bandwidth (≈3 GB/s QDR IB).
    """
    if n_sockets < 1:
        raise ValueError(f"n_sockets must be >= 1, got {n_sockets}")
    if v_mem < 0 or v_net < 0:
        raise ValueError("volumes must be >= 0")
    if b_mem <= 0 or b_net <= 0:
        raise ValueError("bandwidths must be > 0")
    return v_mem / (n_sockets * b_mem) + 2 * v_net / b_net
