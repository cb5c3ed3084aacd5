"""Unit tests for the vectorized lockstep engine.

``LOCKSTEP_DIGESTS`` pins the engine's four timing matrices bitwise, as a
sha256 digest per run; the digests were recorded with the engine of the
commit before the recurrence last changed, so a rewrite must keep every
floating-point operation and its order.
"""

import hashlib

import numpy as np
import pytest

from repro.sim import (
    CommPattern,
    DelaySpec,
    Direction,
    ExponentialNoise,
    HockneyModel,
    LockstepConfig,
    MachineTopology,
    ProcessMapping,
    Protocol,
    UniformNetwork,
    build_exec_times,
    simulate_lockstep,
    simulate_lockstep_batch,
)

T = 3e-3


def cfg(**kw):
    base = dict(n_ranks=10, n_steps=12, t_exec=T, msg_size=8192)
    base.update(kw)
    pattern_kw = {}
    for key in ("direction", "distance", "periodic"):
        if key in base:
            pattern_kw[key] = base.pop(key)
    if pattern_kw:
        base["pattern"] = CommPattern(**pattern_kw)
    return LockstepConfig(**base)


class TestLockstepResult:
    def test_matrix_shapes(self):
        res = simulate_lockstep(cfg())
        assert res.exec_end.shape == (10, 12)
        assert res.completion.shape == (10, 12)
        assert res.n_ranks == 10 and res.n_steps == 12

    def test_monotone_time_per_rank(self):
        res = simulate_lockstep(cfg(noise=ExponentialNoise(1e-4)))
        assert (np.diff(res.completion, axis=1) > 0).all()
        assert (res.completion >= res.post_end).all()
        assert (res.post_end >= res.exec_end).all()
        assert (res.exec_end > res.exec_start).all()

    def test_idle_matrix_nonnegative(self):
        res = simulate_lockstep(cfg(noise=ExponentialNoise(2e-4), seed=3))
        assert (res.idle >= 0).all()

    def test_total_runtime_is_last_completion(self):
        res = simulate_lockstep(cfg())
        assert res.total_runtime() == res.completion[:, -1].max()

    def test_to_trace_roundtrip(self):
        res = simulate_lockstep(cfg(noise=ExponentialNoise(1e-4)))
        trace = res.to_trace()
        trace.validate()
        np.testing.assert_allclose(trace.completion_matrix(), res.completion)
        np.testing.assert_allclose(trace.exec_end_matrix(), res.exec_end)
        np.testing.assert_allclose(trace.idle_matrix(), res.idle, atol=1e-15)


class TestLockstepSemantics:
    def test_delay_propagates_forward_eager(self):
        c = cfg(delays=(DelaySpec(rank=3, step=0, duration=5 * T),))
        res = simulate_lockstep(c)
        idle = res.idle
        assert idle[4, 0] > T
        assert idle[2].max() < 0.1 * T

    def test_rendezvous_blocks_sender(self):
        c = cfg(delays=(DelaySpec(rank=3, step=0, duration=5 * T),))
        res = simulate_lockstep(c, protocol=Protocol.RENDEZVOUS)
        assert res.idle[2, 0] > T

    def test_sigma_two_coupling_for_bidirectional_rendezvous(self):
        c = cfg(
            direction=Direction.BIDIRECTIONAL,
            delays=(DelaySpec(rank=5, step=0, duration=5 * T),),
        )
        res = simulate_lockstep(c, protocol=Protocol.RENDEZVOUS)
        idle = res.idle
        assert idle[7, 0] > T  # two hops in step 0
        assert idle[8, 0] < 0.1 * T

    def test_exec_times_override(self):
        c = cfg(n_ranks=4, n_steps=3)
        times = np.full((4, 3), 2 * T)
        res = simulate_lockstep(c, exec_times=times)
        assert res.total_runtime() == pytest.approx(6 * T, rel=0.01)

    def test_wrong_exec_shape_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            simulate_lockstep(cfg(), exec_times=np.zeros((3, 3)))

    def test_custom_network_changes_comm_time(self):
        # On a 10-rank open chain the critical path crosses at most 9 links,
        # so 1 ms of extra latency adds ~9 ms.
        slow = UniformNetwork(latency=1e-3, bandwidth=1e9)
        res_fast = simulate_lockstep(cfg())
        res_slow = simulate_lockstep(cfg(), network=slow)
        assert res_slow.total_runtime() > res_fast.total_runtime() + 8e-3

    def test_meta_records_protocol_and_flight(self):
        res = simulate_lockstep(cfg(msg_size=500_000))
        assert res.meta["protocol"] == "rendezvous"
        assert res.meta["flight"] > 0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_exec_time_rejected(self, value):
        c = cfg(n_ranks=6, n_steps=4, direction=Direction.BIDIRECTIONAL, periodic=True)
        times = np.full((6, 4), T)
        times[2, 1] = value
        times[4, 3] = value
        with pytest.raises(ValueError, match=rf"exec_times must be finite, got {value} at \[2, 1\]"):
            simulate_lockstep(c, exec_times=times)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_batch_exec_time_rejected(self, value):
        c = cfg(n_ranks=6, n_steps=4, direction=Direction.BIDIRECTIONAL, periodic=True)
        times = np.full((3, 6, 4), T)
        times[1, 2, 1] = value
        times[2, 0, 0] = value
        with pytest.raises(ValueError, match=rf"exec_times must be finite, got {value} at \[1, 2, 1\]"):
            simulate_lockstep_batch(c, times)

    def test_negative_exec_time_rejected(self):
        c = cfg(n_ranks=6, n_steps=4)
        times = np.full((3, 6, 4), T)
        times[1, 2, 1] = -1.0
        with pytest.raises(ValueError, match=r"exec_times must be non-negative, got -1.0 at \[2, 1\]"):
            simulate_lockstep(c, exec_times=times[1])
        with pytest.raises(ValueError, match=r"exec_times must be non-negative, got -1.0 at \[1, 2, 1\]"):
            simulate_lockstep_batch(c, times)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_timings_rejected(self):
        c = cfg(n_ranks=6, n_steps=4)
        with pytest.raises(ValueError, match="lockstep timings overflow float64"):
            simulate_lockstep(c, exec_times=np.full((6, 4), 1e308))

    def test_two_rank_periodic_ring_runs(self):
        c = cfg(n_ranks=2, direction=Direction.BIDIRECTIONAL, periodic=True)
        res = simulate_lockstep(c)
        assert res.total_runtime() == pytest.approx(12 * T, rel=0.01)


def digest_cases() -> dict:
    """The runs ``LOCKSTEP_DIGESTS`` pins: name -> (config, exec_times, keywords).

    Every combination of ring or open chain, eager or rendezvous, one or
    two directions and flat or per-domain links, at distance 2 so each
    rank posts two sends per direction; plus a ring small enough that its
    partners alias and one batch of eight draws.
    """
    topology = MachineTopology(cores_per_socket=3, sockets_per_node=2, n_nodes=3)
    cases = {}
    for periodic in (True, False):
        for protocol in (Protocol.EAGER, Protocol.RENDEZVOUS):
            for direction in Direction:
                for mapped in (False, True):
                    c = cfg(n_ranks=14, n_steps=25, distance=2, direction=direction,
                            periodic=periodic, noise=ExponentialNoise(2e-4), seed=5,
                            delays=(DelaySpec(rank=6, step=3, duration=4 * T),))
                    kw = {"protocol": protocol}
                    if mapped:
                        kw.update(network=HockneyModel(),
                                  mapping=ProcessMapping(topology, n_ranks=14, ppn=5))
                    name = "_".join(("periodic" if periodic else "open", protocol.value,
                                     direction.value, "mapped" if mapped else "flat"))
                    cases[name] = (c, build_exec_times(c), kw)
    # On a 3-rank ring the distance-2 partners alias the distance-1 ones.
    c = cfg(n_ranks=3, n_steps=25, distance=2, direction=Direction.BIDIRECTIONAL,
            periodic=True, noise=ExponentialNoise(2e-4), seed=6)
    cases["ring3_aliased_rendezvous_bi_flat"] = (
        c, build_exec_times(c), {"protocol": Protocol.RENDEZVOUS})
    c = cfg(n_ranks=14, n_steps=25, distance=2, direction=Direction.BIDIRECTIONAL,
            periodic=True, noise=ExponentialNoise(2e-4))
    stacked = np.stack([build_exec_times(c, np.random.default_rng(s)) for s in range(8)])
    cases["batch8_periodic_rendezvous_bi_mapped"] = (c, stacked, {
        "protocol": Protocol.RENDEZVOUS, "network": HockneyModel(),
        "mapping": ProcessMapping(topology, n_ranks=14, ppn=5)})
    return cases


def run_digest(c, exec_times, kw) -> str:
    """sha256 of the four timing matrices as little-endian float64 bytes."""
    if exec_times.ndim == 3:
        res = simulate_lockstep_batch(c, exec_times, **kw)
    else:
        res = simulate_lockstep(c, exec_times=exec_times, **kw)
    h = hashlib.sha256()
    for key in ("exec_start", "exec_end", "post_end", "completion"):
        h.update(np.ascontiguousarray(getattr(res, key), dtype="<f8").tobytes())
    return h.hexdigest()


LOCKSTEP_DIGESTS = {
    "batch8_periodic_rendezvous_bi_mapped":
        "850fc991486e46f13648f69bd27b88a6b3616e0188c6ed2dddf8a43b08e13655",
    "open_eager_bi_flat":
        "f5f06eb05e5b126fe0b85e2a289b8a7dd6c6db45c81edc1c4ccd8728d3119e8f",
    "open_eager_bi_mapped":
        "0be17a0b6d9deae0518eae671325c8236c9c350a89c8783763000f0fc49eef70",
    "open_eager_uni_flat":
        "1dfa1d96b435827c8cee835544747a729b1a8bf39c757a7de3ffa6a3189bd0f4",
    "open_eager_uni_mapped":
        "a54921f2d495db3bf7f70a6e49fe9e37ce1b41ad597766529078d50c389b114b",
    "open_rendezvous_bi_flat":
        "a793cae13629f9d31e9f567ae5c79ec19104366a258be701a5b849290eb35417",
    "open_rendezvous_bi_mapped":
        "1e0886406dc78e6e6385f1435b85a71270778a708681b89c64d5a7eb754b597a",
    "open_rendezvous_uni_flat":
        "756c2e736fc9f67e0c1d243cd9ad1bf14221e3c95bbac720abb75c0201abd7eb",
    "open_rendezvous_uni_mapped":
        "623d5d48a13d7093a7602de73433ce222a6c097d4003186f2710b54ce65f8a50",
    "periodic_eager_bi_flat":
        "ee02d5561e38d6e24d42e2bd8168984e31184fa769f7a7e1d969ab93d8f62611",
    "periodic_eager_bi_mapped":
        "37ddfa4d226f93ba781dd52462df4861578cbb00c326d5528e8687cca2c935f6",
    "periodic_eager_uni_flat":
        "4f086646b1b524782c8e83dd2f78ab219b46b1d53f1d541ef5f0f2209156bdbe",
    "periodic_eager_uni_mapped":
        "84ec959bd9e39057179f2814284e42e207ddb941824c29cd7332b2985594ae73",
    "periodic_rendezvous_bi_flat":
        "de1b7483243e0d0140cc963351b116e06f3741c9cb6ca3217c1d91d93a8f0602",
    "periodic_rendezvous_bi_mapped":
        "f6ea4758f424a80e53ddf153888a04f6a495ef9a5acd626d308861d29ac8ffcd",
    "periodic_rendezvous_uni_flat":
        "c606b001e23e3acc8826a17317d896ec2307ae1eedca8841dfa4b5aaf3c9d970",
    "periodic_rendezvous_uni_mapped":
        "759a5c00e76a8acecfa202cc473b11b0b6bb462d413696c4a690e24bb5399b91",
    "ring3_aliased_rendezvous_bi_flat":
        "217a99b65795a81a9650940366679832ff4fbb4822a0fcbb3a0b9090b237de42",
}


@pytest.mark.parametrize("name", sorted(LOCKSTEP_DIGESTS))
def test_run_digest(name):
    assert run_digest(*digest_cases()[name]) == LOCKSTEP_DIGESTS[name], f"{name} drifted"


def test_digests_cover_every_case():
    assert sorted(LOCKSTEP_DIGESTS) == sorted(digest_cases())
