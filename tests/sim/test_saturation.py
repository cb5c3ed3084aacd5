"""Unit tests for the processor-sharing saturation simulator.

The golden fixtures under ``tests/golden/saturation/`` pin the engine's
four timing matrices bitwise; they were written by running this file
(``PYTHONPATH=src python tests/sim/test_saturation.py``), which writes only
the fixtures that do not exist yet, so none is ever rewritten to silence a
drift.  Two full-size runs are pinned by a sha256 digest instead.
"""

import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.sim.delay import DelaySpec
from repro.sim.noise import ExponentialNoise, TraceNoise
from repro.sim.program import CommPattern, Direction
from repro.sim.saturation import SaturationConfig, simulate_saturation
from repro.sim.topology import single_switch_mapping

B_CORE = 6.5e9
B_SOCKET = 40e9
GOLDEN_DIR = Path(__file__).parents[1] / "golden" / "saturation"
MATRICES = ("exec_start", "exec_end", "post_end", "completion")


def make_cfg(n_ranks=10, ppn=20, n_steps=5, work=65e6, **kw):
    # ppn=20 on the default dual-socket 10-core nodes puts the first ten
    # ranks on one socket (block-wise placement).
    base = dict(
        mapping=single_switch_mapping(n_ranks, ppn=ppn),
        n_steps=n_steps,
        work_bytes=work,
        b_core=B_CORE,
        b_socket=B_SOCKET,
        pattern=CommPattern(direction=Direction.BIDIRECTIONAL, distance=1, periodic=True),
        t_flight=1e-4,
        o_post=1e-6,
    )
    base.update(kw)
    return SaturationConfig(**base)


class TestSingleRank:
    def test_lone_rank_runs_at_core_bandwidth(self):
        cfg = make_cfg(n_ranks=2, ppn=1, work=B_CORE * 1e-3)  # 1 ms at b_core
        res = simulate_saturation(cfg)
        durations = res.exec_end - res.exec_start
        assert durations[0, 0] == pytest.approx(1e-3, rel=1e-6)


class TestSaturation:
    def test_full_socket_shares_bandwidth(self):
        # 10 ranks on one socket, each streaming 40 MB -> socket-limited:
        # each effective bw = 4 GB/s -> 10 ms per phase.
        cfg = make_cfg(n_ranks=10, ppn=20, work=40e6, n_steps=3)
        res = simulate_saturation(cfg)
        durations = res.exec_end - res.exec_start
        assert durations[:, 0].mean() == pytest.approx(40e6 / (B_SOCKET / 10), rel=0.01)

    def test_few_ranks_not_saturated(self):
        # 4 ranks: 4 * 6.5 = 26 GB/s < 40 GB/s -> each runs at b_core.
        cfg = make_cfg(n_ranks=4, ppn=4, work=6.5e6, n_steps=3)
        res = simulate_saturation(cfg)
        durations = res.exec_end - res.exec_start
        assert durations[:, 0].mean() == pytest.approx(1e-3, rel=0.01)

    def test_two_sockets_double_throughput(self):
        cfg1 = make_cfg(n_ranks=10, ppn=20, work=40e6, n_steps=3)  # one socket
        cfg2 = make_cfg(n_ranks=20, ppn=20, work=40e6, n_steps=3)  # two sockets
        r1 = simulate_saturation(cfg1)
        r2 = simulate_saturation(cfg2)
        d1 = (r1.exec_end - r1.exec_start)[:, 0].mean()
        d2 = (r2.exec_end - r2.exec_start)[:, 0].mean()
        assert d2 == pytest.approx(d1, rel=0.05)  # same per-socket load


class TestStaggeringBenefit:
    def test_desynchronized_start_overlaps_contention(self):
        """A delayed rank streams alone while the others idle -> it runs faster
        than the saturated share (the Fig. 1 overlap mechanism)."""
        delay = 20e-3
        cfg = make_cfg(
            n_ranks=10, ppn=10, work=40e6, n_steps=2,
            delays=(DelaySpec(rank=0, step=0, duration=delay),),
        )
        res = simulate_saturation(cfg)
        durations = res.exec_end - res.exec_start
        # Rank 0 step 1: the others are stuck waiting for its step-0 message,
        # so it streams with less contention than the full-socket share.
        saturated = 40e6 / (B_SOCKET / 10)
        assert durations[0, 1] < saturated * 0.9


class TestCommunication:
    def test_flight_time_adds_to_cycle(self):
        fast = simulate_saturation(make_cfg(t_flight=0.0, n_steps=4))
        slow = simulate_saturation(make_cfg(t_flight=5e-3, n_steps=4))
        assert slow.total_runtime() > fast.total_runtime() + 3 * 5e-3

    def test_rendezvous_couples_both_directions(self):
        cfg_e = make_cfg(
            n_steps=3, rendezvous=False,
            pattern=CommPattern(direction=Direction.UNIDIRECTIONAL, periodic=True),
            delays=(DelaySpec(rank=5, step=0, duration=30e-3),),
        )
        cfg_r = make_cfg(
            n_steps=3, rendezvous=True,
            pattern=CommPattern(direction=Direction.UNIDIRECTIONAL, periodic=True),
            delays=(DelaySpec(rank=5, step=0, duration=30e-3),),
        )
        idle_e = simulate_saturation(cfg_e).idle
        idle_r = simulate_saturation(cfg_r).idle
        # Rank 4 (sender to 5) only waits under rendezvous.
        assert idle_r[4, 0] > 10e-3
        assert idle_e[4, 0] < 1e-3


class TestNoiseAndSerial:
    def test_serial_tail_adds_fixed_time(self):
        cfg0 = make_cfg(t_serial=0.0, n_steps=3)
        cfg1 = make_cfg(t_serial=2e-3, n_steps=3)
        r0 = simulate_saturation(cfg0)
        r1 = simulate_saturation(cfg1)
        assert r1.total_runtime() == pytest.approx(r0.total_runtime() + 3 * 2e-3, rel=0.05)

    def test_noise_increases_runtime(self):
        r0 = simulate_saturation(make_cfg(seed=1))
        r1 = simulate_saturation(make_cfg(noise=ExponentialNoise(1e-3), seed=1))
        assert r1.total_runtime() > r0.total_runtime()

    def test_deterministic_given_seed(self):
        a = simulate_saturation(make_cfg(noise=ExponentialNoise(1e-4), seed=5))
        b = simulate_saturation(make_cfg(noise=ExponentialNoise(1e-4), seed=5))
        np.testing.assert_array_equal(a.completion, b.completion)


class TestValidation:
    def test_work_matrix_broadcasting(self):
        cfg = make_cfg(work=np.full(10, 1e6))
        assert cfg.work_matrix().shape == (10, cfg.n_steps)

    def test_bad_work_vector_rejected(self):
        with pytest.raises(ValueError, match="length"):
            make_cfg(work=np.ones(3)).work_matrix()

    def test_negative_work_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            make_cfg(work=-1.0).work_matrix()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["b_core", "b_socket", "t_serial", "t_flight", "o_post"])
    def test_non_finite_parameter_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            make_cfg(**{name: value})

    @pytest.mark.parametrize("work", [np.nan, np.inf, np.array([1e6] * 9 + [np.nan])])
    def test_non_finite_work_rejected(self, work):
        with pytest.raises(ValueError, match="work_bytes must be finite"):
            simulate_saturation(make_cfg(work=work))

    @pytest.mark.parametrize("kw", [
        {"noise": TraceNoise((np.nan,))},
        {"noise": ExponentialNoise(np.inf)},
        {"t_serial": 1e308, "delays": (DelaySpec(rank=0, step=0, duration=1e308),)},
    ], ids=["nan_noise", "inf_noise", "overflowing_delay"])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_serial_time_rejected(self, kw):
        with pytest.raises(ValueError, match=r"serial time \(t_serial \+ noise \+ delays\) must be finite"):
            simulate_saturation(make_cfg(**kw))

    def test_overflowing_stream_end_rejected(self):
        # 1e300 bytes at 1e-10 B/s is a stream end past float64's range.
        with pytest.raises(ValueError, match="saturation timings overflow float64"):
            simulate_saturation(make_cfg(work=1e300, b_core=1e-10))

    def test_result_monotone_and_valid(self):
        res = simulate_saturation(make_cfg(noise=ExponentialNoise(1e-4), n_steps=6))
        assert (np.diff(res.completion, axis=1) > 0).all()
        res.to_trace().validate()

    def test_delay_outside_run_rejected(self):
        cfg = make_cfg(delays=(DelaySpec(rank=0, step=99, duration=1e-3),))
        with pytest.raises(ValueError, match="outside"):
            simulate_saturation(cfg)


def golden_configs() -> dict:
    """The runs whose timing matrices ``tests/golden/saturation/`` pins."""
    from repro.cluster import EMMY
    from repro.experiments import ext_membound
    from repro.workloads.lbm import LbmWorkload, lbm_saturation_config
    from repro.workloads.stream import triad_saturation_config

    # Every fifth (rank, step) phase streams nothing.
    r, k = np.indices((12, 15))
    work = np.where((r + k) % 5 == 0, 0.0, 1e6 * (1 + (3 * r + 7 * k) % 11))
    return {
        # A Fig. 1(a) point shrunk to two full sockets.
        "fig1_triad_2sockets": triad_saturation_config(
            EMMY.with_nodes(16), n_sockets=2, ppn=20, n_steps=40, seed=3),
        # Fig. 2's per-rank traffic on 24 ranks: two full sockets, one of four.
        "fig2_lbm_small": lbm_saturation_config(
            EMMY.with_nodes(8), workload=LbmWorkload(domain=(72, 302, 302), n_ranks=24),
            n_steps=30, seed=1),
        "ext_membound_saturated_delay": ext_membound._config(
            work_bytes=40e6, b_core=6.5e9, b_socket=40e9,
            delays=(DelaySpec(rank=4, step=0, duration=ext_membound.DELAY),)),
        "eager_unidirectional_zero_work": make_cfg(
            n_ranks=12, n_steps=15, work=work, t_serial=5e-5,
            noise=ExponentialNoise(2e-4), seed=4,
            pattern=CommPattern(direction=Direction.UNIDIRECTIONAL, distance=2,
                                periodic=False),
            delays=(DelaySpec(rank=3, step=2, duration=4e-3),)),
        # Two ranks on one socket whose stream ends often tie; the rank
        # handled first sets the other's remainder, so this pins the order.
        "two_rank_stream_ties": make_cfg(
            n_ranks=2, n_steps=8, b_socket=1e10, noise=ExponentialNoise(1e-4),
            rendezvous=True, seed=7),
        # Noise-free, so equal remainders tie at almost every rebalance of
        # both sockets.  The odd work and bandwidths leave rounding residues
        # in the drained remainders, so the tied rank handled first changes
        # the timings: handling the last one first moves 48 cells.
        "noise_free_two_socket_ties": make_cfg(
            n_ranks=20, n_steps=12, work=12345678.9, b_core=7.9e9, b_socket=3.7e10,
            t_flight=3e-6, rendezvous=True,
            delays=(DelaySpec(rank=7, step=2, duration=2e-3),)),
        # With no flight time and no posting overhead, a tail starts the
        # next phases at its own time, so the order of same-time events
        # (tail, phase starts, stream ends) decides the timings.
        "zero_latency_noise_free_ties": make_cfg(
            n_ranks=20, n_steps=12, work=12345678.9, b_core=7.9e9, b_socket=3.7e10,
            t_flight=0.0, o_post=0.0, rendezvous=True,
            delays=(DelaySpec(rank=13, step=1, duration=1e-3),)),
        "unidirectional_rendezvous_two_delays": make_cfg(
            n_ranks=12, n_steps=15, noise=ExponentialNoise(1e-4), rendezvous=True,
            seed=11,
            pattern=CommPattern(direction=Direction.UNIDIRECTIONAL, periodic=True),
            delays=(DelaySpec(rank=2, step=1, duration=6e-3),
                    DelaySpec(rank=9, step=4, duration=3e-3))),
    }


@pytest.mark.parametrize("name", sorted(golden_configs()))
def test_golden_fixture_replays_bitwise(name):
    record = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    res = simulate_saturation(golden_configs()[name])
    for key in MATRICES:
        np.testing.assert_array_equal(
            getattr(res, key), np.asarray(record[key]),
            err_msg=f"saturation golden {name}: {key} drifted")


def full_size_configs() -> dict:
    """Fig. 2's fast run and Fig. 1(a)'s 9-socket point, both at seed 0."""
    from repro.cluster import EMMY
    from repro.workloads.lbm import lbm_saturation_config
    from repro.workloads.stream import triad_saturation_config

    return {
        "fig2_fast": lbm_saturation_config(EMMY.with_nodes(8), n_steps=600, seed=0),
        "fig1_9sockets_ppn20": triad_saturation_config(
            EMMY.with_nodes(16), n_sockets=9, ppn=20, n_steps=400, seed=0),
    }


def matrices_digest(res) -> str:
    """sha256 of the four timing matrices as little-endian float64 bytes."""
    h = hashlib.sha256()
    for key in MATRICES:
        h.update(np.ascontiguousarray(getattr(res, key), dtype="<f8").tobytes())
    return h.hexdigest()


FULL_SIZE_DIGESTS = {
    "fig2_fast": "bc6aa2fbae0716f6e3c68fc7e0b1ba832425796a8dafe0c2a73b96ca45b0a836",
    "fig1_9sockets_ppn20": "aeee7aba08f2f1a0cc2788e09a554bf4fbb076ef18475f05c9efc15f65c15717",
}


@pytest.mark.parametrize("name", sorted(FULL_SIZE_DIGESTS))
def test_full_size_run_digest(name):
    res = simulate_saturation(full_size_configs()[name])
    assert matrices_digest(res) == FULL_SIZE_DIGESTS[name], f"{name} drifted"


def test_peak_memory_stays_near_the_output_matrices():
    """The engine keeps its state in 8-byte cells, not Python objects."""
    cfg = full_size_configs()["fig2_fast"]
    outputs = len(MATRICES) * cfg.n_ranks * cfg.n_steps * 8
    simulate_saturation(make_cfg(n_steps=2))  # first-call imports are not engine memory
    tracemalloc.start()
    try:
        simulate_saturation(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * outputs, f"peak {peak} B is {peak / outputs:.2f}x the outputs"


def write_golden_fixtures(directory: Path = GOLDEN_DIR,
                          configs: "dict | None" = None) -> "list[str]":
    """Record the fixtures missing from ``directory``; never overwrite one.

    Returns the names written and prints each existing fixture it skipped.
    """
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, cfg in (golden_configs() if configs is None else configs).items():
        path = directory / f"{name}.json"
        if path.exists():
            print(f"skipped {path}: exists")
            continue
        res = simulate_saturation(cfg)
        record = {"name": name, "n_ranks": cfg.n_ranks, "n_steps": cfg.n_steps,
                  **{key: getattr(res, key).tolist() for key in MATRICES}}
        path.write_text(json.dumps(record, indent=1) + "\n")
        written.append(name)
    return written


def test_fixture_writer_never_overwrites(tmp_path, capsys):
    kept = tmp_path / "kept.json"
    kept.write_text("sentinel\n")
    cfg = make_cfg(n_ranks=2, n_steps=3)
    assert write_golden_fixtures(tmp_path, {"kept": cfg, "new": cfg}) == ["new"]
    assert kept.read_text() == "sentinel\n"
    out = capsys.readouterr().out
    assert "skipped" in out and "kept.json" in out and "new.json" not in out
    record = json.loads((tmp_path / "new.json").read_text())
    res = simulate_saturation(cfg)
    for key in MATRICES:
        np.testing.assert_array_equal(getattr(res, key), np.asarray(record[key]))


if __name__ == "__main__":
    write_golden_fixtures()
