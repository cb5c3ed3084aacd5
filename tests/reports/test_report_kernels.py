"""Metric kernels: literal pins, and one implementation per analysis.

Each metric's arithmetic lives once, as a batched function in
:mod:`repro.core` or :mod:`repro.analysis`; a report kernel adapts it to
the registry, and a single-run name (``wave_front``, ``measure_speed``,
``desync_onset``, ...) is its call on a one-draw view
(:meth:`~repro.core.timing.RunTiming.batch`).  So two things are checked:

- literal per-draw values of every kernel field, of the default
  threshold and of the front length, compared at ``GOLDEN_RTOL`` (floats
  relatively, integers exactly);
- a B=N call and B=1 calls on each slice of the same code agree
  bitwise, NaN equal to NaN: no draw's numbers depend on the batch it
  shares.
"""

import numpy as np
import pytest

from repro.analysis.desync import desync_onset, overlap_efficiency, skew_spread
from repro.analysis.fourier import skew_spectrum
from repro.core.decay import measure_decay
from repro.core.idle_wave import (
    batched_default_threshold,
    batched_wave_front,
    default_threshold,
    wave_front,
)
from repro.core.speed import measure_speed
from repro.core.timing import BatchedTiming
from repro.golden import GOLDEN_RTOL
from repro.reports import MetricContext, get_kernel, kernel_names
from repro.reports.errors import ReportError
from repro.reports.kernels import register_kernel
from repro.scenarios import compile_scenario, load_bundled_scenario
from repro.scenarios.runner import run_scenario

N_DRAWS = 6
KERNELS = ("runtime", "wave_speed", "decay_rate", "desync", "idle_histogram",
           "fourier")


def build_batch(name="fig8_decay_rate", seeds=range(N_DRAWS)):
    spec = load_bundled_scenario(name).without_sweep()
    compiled = compile_scenario(spec)
    timings = [run_scenario(compiled, seed=s).timing for s in seeds]
    batch = BatchedTiming(
        exec_end=np.stack([t.exec_end for t in timings]),
        completion=np.stack([t.completion for t in timings]),
        idle=np.stack([t.idle for t in timings]),
        meta=dict(timings[0].meta),
    )
    return compiled, batch


@pytest.fixture(scope="module")
def noisy():
    return build_batch("fig8_decay_rate")


@pytest.fixture(scope="module")
def silent():
    return build_batch("fig4_single_delay", seeds=range(2))


@pytest.fixture(scope="module")
def batches(noisy, silent):
    return {"fig8_decay_rate": noisy, "fig4_single_delay": silent}


def assert_same(got, want, name):
    """Bitwise equality, NaN equal to NaN."""
    np.testing.assert_array_equal(got, want, err_msg=name, strict=True)


#: Per-draw values recorded from the report kernels before the analyses
#: moved out of ``reports/kernels.py``: ``fig8_decay_rate`` seeds 0-5 and
#: ``fig4_single_delay`` seeds 0-1 (a noise-free scenario, so both draws
#: agree).  ``threshold`` is ``batched_default_threshold`` and ``n_hops``
#: the length of the default front the speed and decay kernels trace.
PINS = {
    "fig8_decay_rate": {
        "threshold": [
            0.00450384528471296, 0.004502709126522457, 0.0045062929567535395,
            0.004500307493195681, 0.004509439048548724, 0.004504308253766778],
        "n_hops": [30, 30, 30, 30, 30, 30],
        "runtime.total_runtime": [
            0.3097545800154365, 0.30980910163476305, 0.3091711008902983,
            0.3095510123118238, 0.31037521404432383, 0.30950318859423204],
        "runtime.total_idle": [
            5.610127731054749, 5.619075172996885, 5.598019534593169,
            5.600090797879535, 5.644709169670252, 5.604790902261037],
        "runtime.mean_idle_per_rank": [
            0.09350212885091248, 0.09365125288328142, 0.0933003255765528,
            0.09333484663132556, 0.09407848616117086, 0.09341318170435062],
        "wave_speed.measured_speed": [
            316.93767375039533, 319.3704675109474, 317.7402670563641,
            317.30394105421937, 319.3582478591827, 318.3370131512608],
        "wave_speed.predicted_speed": [
            332.7531597130869, 332.7531597130869, 332.7531597130869,
            332.7531597130869, 332.7531597130869, 332.7531597130869],
        "wave_speed.relative_error": [
            0.04752918342331693, 0.0402180770084306, 0.045117205407358286,
            0.04642846568966764, 0.04025479988064977, 0.043323845742761054],
        "wave_speed.front_hops": [30.0, 30.0, 30.0, 30.0, 30.0, 30.0],
        "decay_rate.beta": [
            7.477140745749286e-05, 7.150079811290643e-05,
            6.996244132776652e-05, 8.489789102556268e-05,
            6.419067571877871e-05, 6.441427798684638e-05],
        "decay_rate.slope_beta": [
            8.391520962694632e-05, 5.5138888949269745e-05,
            7.860362004150671e-05, 9.57340466019044e-05, 6.918613095009118e-05,
            7.063014525513205e-05],
        "decay_rate.initial_amplitude": [
            0.08999314197812115, 0.09000406641203665, 0.08997451017431372,
            0.09000614986391361, 0.09018878097097446, 0.09008616507533555],
        "decay_rate.survival_hops": [30.0, 30.0, 30.0, 30.0, 30.0, 30.0],
        "desync.final_skew": [
            0.0010038805189976907, 0.0011166243560871147,
            0.0004445240528517247, 0.000984179326362078, 0.001142934321212985,
            0.0009266514099258161],
        "desync.max_skew": [
            0.09037664930685446, 0.09044090995396671, 0.0902729874756627,
            0.09022790380218403, 0.09045286926623902, 0.0903139822903549],
        "desync.mean_skew": [
            0.038023454797708627, 0.03810827273555392, 0.037855585802057216,
            0.03794711689252381, 0.0382365973814425, 0.037871580879457065],
        "desync.desync_onset_step": [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        "desync.overlap_efficiency": [
            0.8972511352058764, 0.8971227998631794, 0.8972159919599324,
            0.8969130543933989, 0.8974089206807163, 0.8973776635982414],
        "idle_histogram.n_idle_periods": [
            3092.0, 3146.0, 3157.0, 3168.0, 3137.0, 3102.0],
        "idle_histogram.mean_idle": [
            0.0018144009479478488, 0.0017861014535908726, 0.001773208595056436,
            0.0017677054286235905, 0.0017993972488588627,
            0.0018068313675889867],
        "idle_histogram.max_idle": [
            0.09007690569425919, 0.09005418253044914, 0.09012585913507079,
            0.09000614986391361, 0.09018878097097446, 0.09008616507533555],
        "idle_histogram.p95_idle": [
            0.0003901359773009927, 0.00039463611126249604,
            0.000364100156944668, 0.0003526532002482424,
            0.00041566559231679393, 0.0003406311785953019],
        "fourier.dominant_mode": [1.0, 1.0, 2.0, 1.0, 1.0, 1.0],
        "fourier.dominant_wavelength": [60.0, 60.0, 30.0, 60.0, 60.0, 60.0],
        "fourier.mode_fraction": [
            0.6346382840954213, 0.6403443195704431, 0.3782069596098029,
            0.7719295482115509, 0.8840177376454802, 0.438228472911446],
    },
    "fig4_single_delay": {
        "threshold": [0.0015, 0.0015],
        "n_hops": [12, 12],
        "runtime.total_runtime": [0.07356676800000006, 0.07356676800000006],
        "runtime.total_idle": [0.16242629866666686, 0.16242629866666686],
        "runtime.mean_idle_per_rank": [
            0.00902368325925927, 0.00902368325925927],
        "wave_speed.measured_speed": [332.75528900177915, 332.75528900177915],
        "wave_speed.predicted_speed": [332.7531597130869, 332.7531597130869],
        "wave_speed.relative_error": [
            6.399003676079335e-06, 6.399003676079335e-06],
        "wave_speed.front_hops": [12.0, 12.0],
        "decay_rate.beta": [-4.5454545456167936e-08, -4.5454545456167936e-08],
        "decay_rate.slope_beta": [
            -1.923076923274761e-08, -1.923076923274761e-08],
        "decay_rate.initial_amplitude": [
            0.01350473066666667, 0.01350473066666667],
        "decay_rate.survival_hops": [12.0, 12.0],
        "desync.final_skew": [0.013556768000000032, 0.013556768000000032],
        "desync.max_skew": [0.013556768000000032, 0.013556768000000032],
        "desync.mean_skew": [0.013541156800000023, 0.013541156800000023],
        "desync.desync_onset_step": [0.0, 0.0],
        "desync.overlap_efficiency": [0.6876958227275292, 0.6876958227275292],
        "idle_histogram.n_idle_periods": [101.0, 101.0],
        "idle_histogram.mean_idle": [
            0.0016081811749174937, 0.0016081811749174937],
        "idle_histogram.max_idle": [
            0.013505230666666687, 0.013505230666666687],
        "idle_histogram.p95_idle": [
            0.013504730666666676, 0.013504730666666676],
        "fourier.dominant_mode": [1.0, 1.0],
        "fourier.dominant_wavelength": [18.0, 18.0],
        "fourier.mode_fraction": [0.5897307606980154, 0.5897307606980154],
    },
}


class TestPinnedValues:
    @pytest.mark.parametrize("scenario", sorted(PINS))
    def test_threshold(self, batches, scenario):
        _, batch = batches[scenario]
        np.testing.assert_allclose(
            batched_default_threshold(batch), PINS[scenario]["threshold"],
            rtol=GOLDEN_RTOL, atol=0.0)

    @pytest.mark.parametrize("scenario", sorted(PINS))
    def test_front_hops(self, batches, scenario):
        compiled, batch = batches[scenario]
        ctx = MetricContext(compiled=compiled)
        front = batched_wave_front(batch, ctx.source, periodic=ctx.periodic)
        assert front.n_hops.tolist() == PINS[scenario]["n_hops"]

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("scenario", sorted(PINS))
    def test_kernel_fields(self, batches, scenario, kernel):
        compiled, batch = batches[scenario]
        out = get_kernel(kernel).compute(batch, MetricContext(compiled=compiled))
        for field, values in out.items():
            np.testing.assert_allclose(
                values, PINS[scenario][f"{kernel}.{field}"],
                rtol=GOLDEN_RTOL, atol=0.0, err_msg=f"{kernel}.{field}")


class TestThresholdAndFront:
    def test_threshold_matches_scalar(self, noisy):
        """B=6 thresholds equal the one-run ``default_threshold`` calls."""
        _, batch = noisy
        thr = batched_default_threshold(batch)
        for b in range(batch.n_batch):
            assert_same(thr[b], default_threshold(batch[b]), f"threshold[{b}]")

    def test_front_matches_scalar_walk(self, noisy):
        """The B=6 walk equals the one-run ``wave_front`` walk per draw."""
        compiled, batch = noisy
        source = compiled.cfg.delays[0].rank
        front = batched_wave_front(batch, source, periodic=True)
        for b in range(batch.n_batch):
            single = wave_front(batch[b], source, periodic=True)
            n = front.n_hops[b]
            assert n == len(single.hops)
            assert_same(front.arrival_steps[b, :n], single.arrival_steps,
                        "arrival_steps")
            assert_same(front.arrival_times[b, :n], single.arrival_times,
                        "arrival_times")
            assert_same(front.amplitudes[b, :n], single.amplitudes,
                        "amplitudes")
            assert_same(front.ranks[:n], single.ranks, "ranks")
            assert_same(np.arange(1, n + 1), single.hops, "hops")

    def test_front_is_cached_per_batch(self, noisy):
        compiled, batch = noisy
        source = compiled.cfg.delays[0].rank
        a = batched_wave_front(batch, source, periodic=True)
        b = batched_wave_front(batch, source, periodic=True)
        assert a is b

    def test_bad_direction_rejected(self, noisy):
        _, batch = noisy
        with pytest.raises(ValueError, match="direction"):
            batched_wave_front(batch, 0, direction=2)

    def test_bad_source_rejected(self, noisy):
        _, batch = noisy
        with pytest.raises(IndexError, match="source rank"):
            batched_wave_front(batch, batch.n_ranks)

    def test_one_draw_view_copies_nothing(self, noisy):
        _, batch = noisy
        timing = batch[2]
        view = timing.batch()
        assert view.n_batch == 1
        for name in ("exec_end", "completion", "idle"):
            assert np.shares_memory(getattr(view, name), getattr(timing, name))
            assert np.shares_memory(getattr(view, name), getattr(batch, name))


class TestKernelParity:
    """A B=N kernel call equals the B=1 calls on each slice, bitwise; where
    a single-run name exists, it is that B=1 call."""

    def ctx(self, compiled):
        return MetricContext(compiled=compiled)

    def assert_batch_independent(self, kernel, compiled, batch, **params):
        k = get_kernel(kernel)
        out = k.compute(batch, self.ctx(compiled), **params)
        for b in range(batch.n_batch):
            one = k.compute(batch[b].batch(), self.ctx(compiled), **params)
            for field, values in out.items():
                assert_same(values[b], one[field][0], f"{kernel}.{field}[{b}]")
        return out

    def test_runtime(self, noisy):
        self.assert_batch_independent("runtime", *noisy)

    def test_decay_rate(self, noisy):
        compiled, batch = noisy
        source = compiled.cfg.delays[0].rank
        out = self.assert_batch_independent("decay_rate", compiled, batch)
        for b in range(batch.n_batch):
            meas = measure_decay(batch[b], source, direction=+1, periodic=True)
            assert_same(out["beta"][b], meas.beta, "beta")
            assert_same(out["slope_beta"][b], meas.slope_beta, "slope_beta")
            assert_same(out["initial_amplitude"][b], meas.initial_amplitude,
                        "initial_amplitude")
            assert_same(out["survival_hops"][b], float(meas.survival_hops),
                        "survival_hops")

    def test_wave_speed(self, silent):
        compiled, batch = silent
        source = compiled.cfg.delays[0].rank
        out = self.assert_batch_independent("wave_speed", compiled, batch)
        for b in range(batch.n_batch):
            meas = measure_speed(batch[b], source, direction=+1,
                                 periodic=False)
            assert_same(out["measured_speed"][b], meas.speed, "speed")
        assert np.all(out["predicted_speed"] > 0)

    def test_desync(self, noisy):
        compiled, batch = noisy
        out = self.assert_batch_independent("desync", compiled, batch)
        for b in range(batch.n_batch):
            timing = batch[b]
            spread = skew_spread(timing)
            assert_same(out["final_skew"][b], spread[-1], "final_skew")
            assert_same(out["max_skew"][b], spread.max(), "max_skew")
            assert_same(out["mean_skew"][b], spread.mean(), "mean_skew")
            onset = desync_onset(timing)
            expected = np.nan if onset is None else float(onset)
            assert_same(out["desync_onset_step"][b], expected, "onset")
            assert_same(out["overlap_efficiency"][b],
                        overlap_efficiency(timing), "overlap")

    def test_idle_histogram(self, noisy):
        self.assert_batch_independent("idle_histogram", *noisy)

    def test_fourier(self, noisy):
        compiled, batch = noisy
        out = self.assert_batch_independent("fourier", compiled, batch)
        for b in range(batch.n_batch):
            spectrum = skew_spectrum(batch[b], batch.n_steps - 1)
            mode = spectrum.dominant_mode()
            assert_same(out["dominant_mode"][b], float(mode), "mode")
            assert_same(out["dominant_wavelength"][b],
                        spectrum.dominant_wavelength(), "wavelength")
            assert_same(out["mode_fraction"][b], spectrum.mode_fraction(mode),
                        "fraction")

    def test_fourier_step_param(self, noisy):
        compiled, batch = noisy
        out = self.assert_batch_independent("fourier", compiled, batch, step=3)
        spectrum = skew_spectrum(batch[0], 3)
        assert_same(out["dominant_mode"][0], float(spectrum.dominant_mode()),
                    "mode")

    def test_fourier_step_out_of_range(self, noisy):
        compiled, batch = noisy
        with pytest.raises(IndexError, match="out of range"):
            get_kernel("fourier").compute(batch, self.ctx(compiled),
                                          step=batch.n_steps)


class TestEdgeCases:
    def test_unmeasurable_wave_is_nan_not_error(self):
        # A quiet run: no delay wave anywhere -> speed/decay NaN per draw.
        compiled, batch = build_batch("fig4_single_delay", seeds=range(2))
        quiet = BatchedTiming(
            exec_end=batch.exec_end.copy(),
            completion=batch.completion.copy(),
            idle=np.zeros_like(batch.idle),
            meta=dict(batch.meta),
        )
        ctx = MetricContext(compiled=compiled)
        speed = get_kernel("wave_speed").compute(quiet, ctx)
        assert np.all(np.isnan(speed["measured_speed"]))
        decay = get_kernel("decay_rate").compute(quiet, ctx)
        assert np.all(np.isnan(decay["beta"]))

    def test_histogram_without_idle(self):
        compiled, batch = build_batch("fig4_single_delay", seeds=range(2))
        quiet = BatchedTiming(
            exec_end=batch.exec_end.copy(),
            completion=batch.completion.copy(),
            idle=np.zeros_like(batch.idle),
            meta=dict(batch.meta),
        )
        out = get_kernel("idle_histogram").compute(
            quiet, MetricContext(compiled=compiled))
        assert np.all(out["n_idle_periods"] == 0)
        assert np.all(out["mean_idle"] == 0)
        assert np.all(np.isnan(out["p95_idle"]))

    def test_needs_delay_context(self):
        spec = load_bundled_scenario("campaign_rate_sweep").without_sweep()
        ctx = MetricContext(compiled=compile_scenario(spec))
        with pytest.raises(ReportError, match="declares none"):
            ctx.source


class TestRegistry:
    def test_known_kernels_registered(self):
        assert {"runtime", "wave_speed", "decay_rate", "desync",
                "idle_histogram", "fourier"} <= set(kernel_names())

    def test_unknown_kernel_names_alternatives(self):
        with pytest.raises(ReportError, match="registered kernels"):
            get_kernel("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_kernel("runtime", fields=("x",), reads=("idle",))(
                lambda b, c: {"x": []})
