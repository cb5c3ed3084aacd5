"""MPI point-to-point semantics: protocols and message matching.

The propagation behaviour of idle waves hinges on one MPI implementation
detail (Sec. II-C1): short messages use the **eager** protocol (the sender
buffers and proceeds — no handshake, no backward dependency), while large
messages use **rendezvous** (sender and receiver synchronize before the
transfer — the sender *cannot* complete until the receiver arrives, which
makes delays propagate *against* the message direction, Fig. 5(e,f)).

This module provides the protocol selection rule (the *eager limit*) and
deterministic message matching: the *n*-th send from rank ``i`` to rank
``j`` with tag ``t`` matches the *n*-th receive posted at ``j`` for source
``i`` and tag ``t`` — MPI's non-overtaking guarantee for our deterministic
programs.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

__all__ = ["Protocol", "select_protocol", "match_messages", "DEFAULT_EAGER_LIMIT"]

#: Default eager limit in bytes.  The paper's Fig. 5 states the limit as
#: "16384 doubles, i.e. 131072 B" (Intel MPI inter-node default).
DEFAULT_EAGER_LIMIT: int = 131072


class Protocol(Enum):
    """Message transfer protocol."""

    EAGER = "eager"
    RENDEZVOUS = "rendezvous"
    AUTO = "auto"


def select_protocol(size_bytes: int, eager_limit: int = DEFAULT_EAGER_LIMIT,
                    forced: Protocol = Protocol.AUTO) -> Protocol:
    """Resolve the protocol used for a message of ``size_bytes``.

    ``forced`` overrides the size-based rule (for controlled experiments);
    with ``Protocol.AUTO`` messages up to and including the eager limit go
    eager, larger ones rendezvous.
    """
    if size_bytes < 0:
        raise ValueError(f"size must be >= 0, got {size_bytes}")
    if eager_limit < 0:
        raise ValueError(f"eager_limit must be >= 0, got {eager_limit}")
    if forced != Protocol.AUTO:
        return forced
    return Protocol.EAGER if size_bytes <= eager_limit else Protocol.RENDEZVOUS


def match_messages(src, dst, tag, is_send) -> "tuple[np.ndarray, np.ndarray]":
    """FIFO-match sends to receives per ``(src, dst, tag)`` channel.

    The four arrays describe every point-to-point operation in posting
    order, one element each: its channel's source rank, destination rank
    and tag, and whether it is a send.  The *n*-th send of a channel
    matches the *n*-th receive of that channel.

    Returns ``(send, recv)``: the input positions of each matched pair,
    ordered by the later of the two — the order in which a walk over the
    operations completes the matches.

    Raises
    ------
    ValueError
        If any send or receive is left unmatched (the program would
        deadlock or leak a request).  The message names every such
        channel with its count of unmatched operations, in the order the
        operations first touched the channels.
    """
    src, dst, tag = (np.asarray(a, dtype=np.int64) for a in (src, dst, tag))
    is_send = np.asarray(is_send, dtype=bool)
    # Channel-major order; lexsort is stable, so each channel keeps its
    # posting order and its first element is its first operation.
    order = np.lexsort((tag, dst, src))
    s, d, t = src[order], dst[order], tag[order]
    head = np.ones(order.size, dtype=bool)
    head[1:] = (s[1:] != s[:-1]) | (d[1:] != d[:-1]) | (t[1:] != t[:-1])
    channel = np.cumsum(head) - 1
    side = is_send[order]
    if not np.array_equal(channel[side], channel[~side]):
        n = int(channel[-1]) + 1
        excess = (np.bincount(channel[side], minlength=n)
                  - np.bincount(channel[~side], minlength=n))
        first = np.flatnonzero(head)  # each channel's first operation
        bad = np.flatnonzero(excess)
        bad = bad[np.argsort(order[first[bad]])]
        name = lambda c: tuple(int(x[first[c]]) for x in (s, d, t))
        sends = {name(c): int(excess[c]) for c in bad if excess[c] > 0}
        recvs = {name(c): int(-excess[c]) for c in bad if excess[c] < 0}
        raise ValueError(
            "program has unmatched point-to-point operations: "
            f"sends={sends} recvs={recvs}"
        )
    send, recv = order[side], order[~side]
    done = np.argsort(np.maximum(send, recv))
    return send[done], recv[done]
