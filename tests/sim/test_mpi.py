"""Unit tests for protocol selection and message matching."""

import pytest

from repro.sim.mpi import (
    DEFAULT_EAGER_LIMIT,
    Protocol,
    match_messages,
    select_protocol,
)


class TestSelectProtocol:
    def test_small_messages_go_eager(self):
        assert select_protocol(8192) == Protocol.EAGER

    def test_limit_is_inclusive(self):
        assert select_protocol(DEFAULT_EAGER_LIMIT) == Protocol.EAGER
        assert select_protocol(DEFAULT_EAGER_LIMIT + 1) == Protocol.RENDEZVOUS

    def test_forced_protocol_overrides_size(self):
        assert select_protocol(8, forced=Protocol.RENDEZVOUS) == Protocol.RENDEZVOUS
        assert select_protocol(10**9, forced=Protocol.EAGER) == Protocol.EAGER

    def test_custom_limit(self):
        assert select_protocol(100, eager_limit=50) == Protocol.RENDEZVOUS

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            select_protocol(-1)


def match(*ops):
    """Match ``("send" | "recv", src, dst, tag)`` operations given in
    posting order; returns ``[(send position, recv position), ...]``."""
    sides, src, dst, tag = zip(*ops) if ops else ((), (), (), ())
    send, recv = match_messages(src, dst, tag, [s == "send" for s in sides])
    return list(zip(send.tolist(), recv.tolist()))


class TestMessageMatcher:
    def test_send_then_recv_matches(self):
        assert match(("send", 0, 1, 0), ("recv", 0, 1, 0)) == [(0, 1)]

    def test_recv_then_send_matches(self):
        assert match(("recv", 0, 1, 0), ("send", 0, 1, 0)) == [(1, 0)]

    def test_fifo_order_per_channel(self):
        """MPI non-overtaking: n-th send matches n-th recv."""
        assert match(("send", 0, 1, 0), ("send", 0, 1, 0),
                     ("recv", 0, 1, 0), ("recv", 0, 1, 0)) == [(0, 2), (1, 3)]

    def test_tags_separate_channels(self):
        assert match(("send", 0, 1, 7), ("recv", 0, 1, 8),
                     ("recv", 0, 1, 7), ("send", 0, 1, 8)) == [(0, 2), (3, 1)]

    def test_directions_are_distinct_channels(self):
        assert match(("send", 0, 1, 0), ("recv", 1, 0, 0),
                     ("send", 1, 0, 0), ("recv", 0, 1, 0)) == [(2, 1), (0, 3)]

    def test_finish_returns_all_matches(self):
        """Every match comes back, ordered by the later of its two
        operations, as a walk over the operations completes them."""
        ops = []
        for i in range(3):
            ops += [("send", 0, 1, i), ("recv", 0, 1, 2 - i)]
        assert match(*ops) == [(2, 3), (4, 1), (0, 5)]
        assert match() == []

    def test_finish_rejects_unmatched_send(self):
        with pytest.raises(ValueError, match=r"unmatched point-to-point "
                           r"operations: sends=\{\(0, 1, 0\): 1\} recvs=\{\}"):
            match(("send", 0, 1, 0))

    def test_finish_rejects_unmatched_recv(self):
        with pytest.raises(ValueError, match=r"unmatched point-to-point "
                           r"operations: sends=\{\} recvs=\{\(0, 1, 0\): 2\}"):
            match(("recv", 0, 1, 0), ("send", 0, 1, 0), ("recv", 0, 1, 0),
                  ("recv", 0, 1, 0))
