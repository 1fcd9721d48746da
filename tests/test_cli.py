"""End-to-end tests of the command-line interface: config resolution,
subcommand behavior, output files, and exit codes."""

import csv

import numpy as np
import pytest

from mixerlab import (
    BlockStackConfig,
    FeatureSequence,
    init_stack,
    layer_norm_apply,
    make_rng,
    save_tensors,
    with_zeroed_projections,
)
from mixerlab.cli import ConfigError, RunConfig, main, parse_config_file


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.seed == 42
        assert cfg.mixer_kind == "hydra"
        assert cfg.tol == 1e-9
        assert cfg.preset is None

    def test_preset_overrides_width_and_depth(self):
        cfg = RunConfig(preset="token-generator", d_model=3, num_blocks=1)
        assert cfg.d_model == 512
        assert cfg.num_blocks == 12
        cfg = RunConfig(preset="latent-denoiser")
        assert (cfg.d_model, cfg.num_blocks) == (256, 8)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(preset="imaginary")

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig(seed=-1)
        with pytest.raises(ConfigError):
            RunConfig(T=0)
        with pytest.raises(ConfigError):
            RunConfig(mixer_kind="unknown")
        with pytest.raises(ConfigError):
            RunConfig(tol=0.0)
        with pytest.raises(ConfigError):
            RunConfig(r_values=())


class TestConfigFile:
    def test_parse_basic(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("seed = 7\n\n# comment line\nT = 12  # trailing\nmixer_kind = favor\n")
        raw = parse_config_file(p)
        assert raw == {"seed": "7", "T": "12", "mixer_kind": "favor"}

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("nonsense = 3\n")
        with pytest.raises(ConfigError):
            parse_config_file(p)

    def test_missing_equals_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("seed 7\n")
        with pytest.raises(ConfigError):
            parse_config_file(p)

    def test_last_duplicate_wins(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("seed = 1\nseed = 2\n")
        assert parse_config_file(p)["seed"] == "2"

    def test_flags_override_file(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text(f"T = 8\nnum_blocks = 1\nd_model = 4\nkernel_size = 3\nN = 2\nr = 4\noutput_dir = {tmp_path / 'from_file'}\n")
        code = main(
            [
                "demo",
                "--config",
                str(p),
                "--mixer_kind",
                "bimamba",
                "--out",
                str(tmp_path / "from_flag"),
            ]
        )
        assert code == 0
        assert (tmp_path / "from_flag" / "demo.csv").exists()
        assert not (tmp_path / "from_file").exists()

    def test_env_supplies_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MIXERLAB_OUT", str(tmp_path / "from_env"))
        code = main(
            ["demo", "--T", "8", "--num_blocks", "1", "--d_model", "4",
             "--kernel_size", "3", "--N", "2", "--r", "4"]
        )
        assert code == 0
        assert (tmp_path / "from_env" / "demo.csv").exists()

    def test_tuple_flag_parsing(self, tmp_path):
        code = main(
            ["diagnose", "--T", "8", "--d_model", "4", "--num_heads", "2",
             "--r", "4", "--r_values", "2,4", "--approx_seeds", "2",
             "--out", str(tmp_path)]
        )
        assert code == 0
        rows = read_csv(tmp_path / "approx_curve.csv")
        assert [r[0] for r in rows[1:]] == ["2", "4"]


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["equiv", "--frobnicate", "1"]) == 2

    def test_bad_value_is_config_error(self, tmp_path, capsys):
        assert main(["demo", "--T", "zero", "--out", str(tmp_path)]) == 2

    def test_missing_config_file_is_io_error(self, tmp_path, capsys):
        assert main(["equiv", "--config", str(tmp_path / "absent.cfg")]) == 3

    def test_missing_dump_file_is_io_error(self, tmp_path, capsys):
        code = main(
            ["diagnose", "--qk_dump", str(tmp_path / "absent.bin"), "--out", str(tmp_path)]
        )
        assert code == 3


class TestEquivCommand:
    def test_default_tolerance_passes(self, tmp_path, capsys):
        code = main(["equiv", "--cases", "25", "--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "equiv.csv")
        assert rows[0] == ["case", "max_abs_err", "pass"]
        names = [r[0] for r in rows[1:]]
        assert names == ["ssm", "bimamba", "hydra", "favor"]
        assert all(r[2] == "true" for r in rows[1:])
        assert all(float(r[1]) <= 1e-9 for r in rows[1:])

    def test_T1_edge_config_passes(self, tmp_path, capsys):
        code = main(["equiv", "--cases", "1", "--T", "1", "--out", str(tmp_path)])
        assert code == 0

    def test_absurd_tolerance_fails_with_exit_one(self, tmp_path, capsys):
        """Roundoff cannot beat 1e-18, so the suites must report failure."""
        code = main(
            ["equiv", "--cases", "25", "--tol", "1e-18", "--out", str(tmp_path)]
        )
        assert code == 1
        rows = read_csv(tmp_path / "equiv.csv")
        assert any(r[2] == "false" for r in rows[1:])


class TestDiagnoseCommand:
    def test_rank_report_shows_low_rank_gap(self, tmp_path, capsys):
        code = main(
            ["diagnose", "--T", "64", "--d_model", "32", "--num_heads", "2",
             "--r", "16", "--approx_seeds", "2", "--r_values", "4,8",
             "--out", str(tmp_path)]
        )
        assert code == 0
        rows = read_csv(tmp_path / "rank_report.csv")
        assert rows[0] == ["mixer_kind", "T", "d_or_N", "r", "rank"]
        by_kind = {}
        for r in rows[1:]:
            by_kind.setdefault(r[0], []).append(r)
        for row in by_kind["softmax"]:
            assert int(row[4]) == 64
            assert row[3] == ""
        for row in by_kind["favor"]:
            assert int(row[4]) <= 16
            assert int(row[3]) == 16

    def test_T1_gives_empty_histogram(self, tmp_path, capsys):
        code = main(
            ["diagnose", "--T", "1", "--d_model", "4", "--num_heads", "2",
             "--r", "2", "--approx_seeds", "1", "--r_values", "2",
             "--out", str(tmp_path)]
        )
        assert code == 0
        rows = read_csv(tmp_path / "l2_hist.csv")
        counts = [int(r[2]) for r in rows[1:]]
        assert sum(counts) == 0

    def test_locality_reaches_one_at_full_window(self, tmp_path, capsys):
        code = main(
            ["diagnose", "--T", "16", "--d_model", "8", "--num_heads", "2",
             "--r", "4", "--approx_seeds", "1", "--r_values", "2",
             "--out", str(tmp_path)]
        )
        assert code == 0
        rows = read_csv(tmp_path / "locality.csv")
        full = [r for r in rows[1:] if r[0] == "15"]
        assert len(full) == 2
        assert all(float(r[1]) == 1.0 for r in full)

    def test_qk_dump_drives_reports(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        save_tensors(
            tmp_path / "qk.bin",
            {"q": rng.standard_normal((12, 4)), "k": rng.standard_normal((12, 4))},
        )
        code = main(
            ["diagnose", "--qk_dump", str(tmp_path / "qk.bin"), "--r", "4",
             "--approx_seeds", "1", "--r_values", "2", "--out", str(tmp_path)]
        )
        assert code == 0
        rows = read_csv(tmp_path / "rank_report.csv")
        assert all(r[1] == "12" for r in rows[1:])

    def test_dump_without_k_rejected(self, tmp_path, capsys):
        save_tensors(tmp_path / "qk.bin", {"q": np.zeros((4, 2))})
        code = main(
            ["diagnose", "--qk_dump", str(tmp_path / "qk.bin"), "--out", str(tmp_path)]
        )
        assert code == 2

    def test_corrupt_dump_exits_2(self, tmp_path, capsys):
        path = tmp_path / "qk.bin"
        save_tensors(path, {"q": np.zeros((4, 2)), "k": np.zeros((4, 2))})
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        code = main(["diagnose", "--qk_dump", str(path), "--out", str(tmp_path)])
        assert code == 2

    def test_indivisible_heads_rejected(self, tmp_path, capsys):
        code = main(
            ["diagnose", "--d_model", "6", "--num_heads", "4", "--out", str(tmp_path)]
        )
        assert code == 2


class TestBenchCommand:
    def test_small_sweep_writes_both_csvs(self, tmp_path, capsys):
        code = main(
            ["bench", "--t_values", "64,128,256", "--d_model", "8",
             "--bench_r", "8", "--N", "4", "--out", str(tmp_path)]
        )
        assert code == 0
        bench_rows = read_csv(tmp_path / "bench.csv")
        assert len(bench_rows) == 1 + 5 * 3
        scaling_rows = read_csv(tmp_path / "scaling.csv")
        assert len(scaling_rows) == 1 + 5
        labels = [r[0] for r in scaling_rows[1:]]
        assert labels == [
            "softmax_attention",
            "favor_attention",
            "ssm_scan",
            "bimamba_scan",
            "hydra_scan",
        ]
        for row in scaling_rows[1:]:
            assert 0.0 <= float(row[2]) <= 1.0


class TestDemoCommand:
    DEMO_ARGS = [
        "demo", "--T", "12", "--d_model", "8", "--num_heads", "2",
        "--num_blocks", "3", "--kernel_size", "3", "--N", "4", "--r", "8",
    ]

    def test_writes_norms_checksum_and_weights(self, tmp_path, capsys):
        code = main(self.DEMO_ARGS + ["--out", str(tmp_path)])
        assert code == 0
        rows = read_csv(tmp_path / "demo.csv")
        assert rows[0] == ["record", "block", "dilation", "value"]
        norm_rows = [r for r in rows[1:] if r[0] == "block_norm"]
        assert len(norm_rows) == 3
        checksum_rows = [r for r in rows[1:] if r[0] == "checksum"]
        assert len(checksum_rows) == 1
        assert len(checksum_rows[0][3]) == 64
        assert (tmp_path / "demo_weights.bin").stat().st_size > 0

    def test_same_seed_twice_is_byte_identical(self, tmp_path, capsys):
        for sub in ("a", "b"):
            assert main(self.DEMO_ARGS + ["--out", str(tmp_path / sub)]) == 0
        for name in ("demo.csv", "demo_weights.bin"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_different_seed_changes_checksum(self, tmp_path, capsys):
        assert main(self.DEMO_ARGS + ["--out", str(tmp_path / "a")]) == 0
        assert main(
            self.DEMO_ARGS + ["--seed", "43", "--out", str(tmp_path / "b")]
        ) == 0
        a = read_csv(tmp_path / "a" / "demo.csv")[-1][3]
        b = read_csv(tmp_path / "b" / "demo.csv")[-1][3]
        assert a != b

    def test_token_generator_preset_logs_dilation_schedule(self, tmp_path, capsys):
        code = main(
            ["demo", "--preset", "token-generator", "--T", "4", "--N", "2",
             "--r", "4", "--out", str(tmp_path)]
        )
        assert code == 0
        rows = read_csv(tmp_path / "demo.csv")
        norm_rows = [r for r in rows[1:] if r[0] == "block_norm"]
        assert len(norm_rows) == 12
        assert [int(r[2]) for r in norm_rows] == [1, 1, 1, 1, 2, 2, 2, 2, 4, 4, 4, 4]

    def test_zeroed_weights_reduce_blocks_to_layer_norm(self, tmp_path, capsys):
        """With the zeroing flag, block i's output is the layer norm of its
        input, so the logged norms must match an independent norm chain."""
        code = main(
            self.DEMO_ARGS + ["--zero_weights", "true", "--out", str(tmp_path)]
        )
        assert code == 0
        rows = read_csv(tmp_path / "demo.csv")
        norm_rows = [r for r in rows[1:] if r[0] == "block_norm"]

        cfg = BlockStackConfig(d_model=8, num_blocks=3, kernel_size=3, mixer_kind="hydra")
        blocks = [
            with_zeroed_projections(b)
            for b in init_stack(cfg, 42, num_heads=2, feature_count=8, state_size=4)
        ]
        y = FeatureSequence(make_rng(42, 5).standard_normal((12, 8)))
        for i, block in enumerate(blocks):
            y = layer_norm_apply(y, block.norm_scale, block.norm_shift)
            assert float(norm_rows[i][3]) == float(np.linalg.norm(y.data))
