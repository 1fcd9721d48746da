"""Tests for the timing harness and the log-log slope fit."""

import csv

import numpy as np
import pytest

from mixerlab import (
    OP_LABELS,
    BenchSample,
    ScalingReport,
    fit_loglog_slope,
    time_operation,
    write_bench_csv,
    write_scaling_csv,
)
from mixerlab import bench
from mixerlab.bench import _setup


def synthetic_samples(label, T_values, times):
    return [
        BenchSample(
            op_label=label,
            T=t,
            d=8,
            r_or_N=0,
            wall_time=w,
            repeats=3,
        )
        for t, w in zip(T_values, times)
    ]


class TestBenchSample:
    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            BenchSample("bogus", 8, 4, 0, 0.1, 3)

    def test_nonpositive_time_rejected(self):
        with pytest.raises(ValueError):
            BenchSample("ssm_scan", 8, 4, 2, 0.0, 3)

    def test_too_few_repeats_rejected(self):
        with pytest.raises(ValueError):
            BenchSample("ssm_scan", 8, 4, 2, 0.1, 2)

    @pytest.mark.parametrize("wall_time", [True, float("inf"), float("nan"), "0.1"])
    def test_time_must_be_a_finite_real(self, wall_time):
        with pytest.raises(ValueError):
            BenchSample("ssm_scan", 8, 4, 2, wall_time, 3)

    def test_numpy_time_accepted(self):
        assert BenchSample("ssm_scan", 8, 4, 2, np.float32(0.1), 3).wall_time > 0


class TestFitLoglogSlope:
    def test_linear_times_fit_slope_one(self):
        T_values = [1024, 2048, 4096, 8192]
        samples = synthetic_samples("ssm_scan", T_values, [3e-6 * t for t in T_values])
        report = fit_loglog_slope(samples)
        np.testing.assert_allclose(report.fitted_slope, 1.0, atol=1e-9)
        np.testing.assert_allclose(report.r_squared, 1.0, atol=1e-12)

    def test_quadratic_times_fit_slope_two(self):
        T_values = [512, 1024, 2048, 4096]
        samples = synthetic_samples(
            "softmax_attention", T_values, [2e-9 * t * t for t in T_values]
        )
        report = fit_loglog_slope(samples)
        np.testing.assert_allclose(report.fitted_slope, 2.0, atol=1e-9)

    def test_noisy_power_law_recovered(self):
        """t = c * T^1.5 * (1 + 0.01 eta) must fit within 0.1 of 1.5."""
        rng = np.random.default_rng(0)
        T_values = [256, 512, 1024, 2048, 4096, 8192]
        times = [
            1e-7 * t**1.5 * (1.0 + 0.01 * rng.standard_normal()) for t in T_values
        ]
        report = fit_loglog_slope(synthetic_samples("favor_attention", T_values, times))
        assert abs(report.fitted_slope - 1.5) < 0.1
        assert report.r_squared > 0.99

    def test_requires_three_samples(self):
        samples = synthetic_samples("ssm_scan", [64, 128], [1e-4, 2e-4])
        with pytest.raises(ValueError):
            fit_loglog_slope(samples)

    def test_rejects_mixed_labels(self):
        s1 = synthetic_samples("ssm_scan", [64, 128], [1e-4, 2e-4])
        s2 = synthetic_samples("hydra_scan", [256], [4e-4])
        with pytest.raises(ValueError):
            fit_loglog_slope(s1 + s2)

    def test_rejects_duplicate_sizes(self):
        samples = synthetic_samples("ssm_scan", [64, 64, 128], [1e-4, 1e-4, 2e-4])
        with pytest.raises(ValueError):
            fit_loglog_slope(samples)

    @pytest.mark.parametrize("wall_time", [1e-4, 3.7e-3, 0.25, 1.0])
    def test_equal_times_fit_flat_and_exactly(self, wall_time):
        """Equal times leave no variance to explain, and a flat line fits
        every point: R^2 is 1 whatever rounding leaves in the sums."""
        report = fit_loglog_slope(synthetic_samples("ssm_scan", [64, 128, 256], [wall_time] * 3))
        assert report.fitted_slope == pytest.approx(0.0, abs=1e-12)
        assert report.r_squared == 1.0

    def test_r_squared_clamped_to_unit_interval(self):
        rng = np.random.default_rng(1)
        T_values = [64, 128, 256, 512]
        times = [float(10 ** rng.uniform(-5, -3)) for _ in T_values]
        report = fit_loglog_slope(synthetic_samples("ssm_scan", T_values, times))
        assert 0.0 <= report.r_squared <= 1.0


class TestTimeOperation:
    def test_every_label_produces_samples(self):
        for label in OP_LABELS:
            d = 1 if label.endswith("_scan") else 4
            samples = time_operation(
                label, [16, 32, 64], d=d, r_or_N=4, repeats=3, seed=0
            )
            assert [s.T for s in samples] == [16, 32, 64]
            assert all(s.op_label == label for s in samples)
            assert all(s.wall_time > 0 for s in samples)
            assert all(s.repeats == 3 for s in samples)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            time_operation("bogus", [16, 32, 64], d=4, r_or_N=4, repeats=3, seed=0)

    @pytest.mark.parametrize("label", ["ssm_scan", "bimamba_scan", "hydra_scan"])
    def test_scan_width_must_be_one(self, label, monkeypatch):
        """A scan draws a one-channel signal whatever d says, so a sample
        recording another width would misreport what was timed."""
        built = []
        monkeypatch.setattr(bench, "_setup", lambda *args: built.append(args))
        with pytest.raises(ValueError, match="d must be 1, got 64"):
            time_operation(label, [8, 16, 32], d=64, r_or_N=4, repeats=3, seed=0)
        assert built == []

    def test_two_sizes_rejected(self):
        with pytest.raises(ValueError, match="need at least 3 sequence lengths, got 2"):
            time_operation("ssm_scan", [16, 32], d=1, r_or_N=4, repeats=3, seed=0)

    def test_sizes_must_ascend(self):
        with pytest.raises(ValueError):
            time_operation("ssm_scan", [64, 32, 128], d=1, r_or_N=4, repeats=3, seed=0)

    @pytest.mark.parametrize(
        "T_values", [[16.9, 32.2, 64.7], [True, 2, 3], [16, 32, 64.0], [0, 1, 2], ["16", 32, 64]]
    )
    def test_sizes_must_be_positive_integers(self, T_values, monkeypatch):
        """Each size is checked before anything is built or timed."""
        built = []
        monkeypatch.setattr(bench, "_setup", lambda *args: built.append(args))
        with pytest.raises(ValueError, match="positive integers"):
            time_operation("ssm_scan", T_values, d=1, r_or_N=4, repeats=3, seed=0)
        assert built == []

    def test_seeded_inputs_are_reproducible(self):
        """The timed thunk is rebuilt from the same seed and stream, so
        its numerical result is identical across runs."""

        def result_array(value):
            return value.data if hasattr(value, "data") else np.asarray(value)

        for label in OP_LABELS:
            thunk_a = _setup(label, T=32, d=4, r_or_N=4, seed=9, stream=0)
            thunk_b = _setup(label, T=32, d=4, r_or_N=4, seed=9, stream=0)
            assert np.array_equal(result_array(thunk_a()), result_array(thunk_b()))


class TestBenchCsv:
    def test_bench_csv_layout(self, tmp_path):
        samples = synthetic_samples("ssm_scan", [64, 128, 256], [1e-4, 2e-4, 4e-4])
        path = tmp_path / "bench.csv"
        write_bench_csv(path, samples)
        rows = list(csv.reader(path.open()))
        assert rows[0] == [
            "op_label",
            "T",
            "d",
            "r_or_N",
            "median_seconds",
            "repeats",
        ]
        assert len(rows) == 4
        assert rows[1][0] == "ssm_scan"
        assert rows[1][1] == "64"

    def test_scaling_csv_layout(self, tmp_path):
        samples = synthetic_samples("ssm_scan", [64, 128, 256], [1e-4, 2e-4, 4e-4])
        report = fit_loglog_slope(samples)
        path = tmp_path / "scaling.csv"
        write_scaling_csv(path, [report])
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["op_label", "slope", "r_squared"]
        assert rows[1][0] == "ssm_scan"
        assert float(rows[1][1]) == pytest.approx(1.0, abs=1e-9)

    def test_scaling_report_validation(self):
        with pytest.raises(ValueError):
            ScalingReport("ssm_scan", 1.0, 1.5)


@pytest.mark.slow
class TestMeasuredScaling:
    def test_scan_time_roughly_doubles_when_T_doubles(self):
        samples = time_operation(
            "ssm_scan", [2048, 4096, 8192], d=1, r_or_N=16, repeats=3, seed=0
        )
        ratio = samples[2].wall_time / samples[1].wall_time
        assert 1.5 <= ratio <= 3.0

    def test_softmax_time_roughly_quadruples_when_T_doubles(self):
        samples = time_operation(
            "softmax_attention", [2048, 4096, 8192], d=64, r_or_N=0, repeats=3, seed=0
        )
        ratio = samples[2].wall_time / samples[1].wall_time
        assert 3.0 <= ratio <= 5.5
