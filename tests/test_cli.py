"""End-to-end tests of the command-line interface: config resolution,
subcommand behavior, output files, and exit codes."""

import csv
import hashlib
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import mixerlab
from mixerlab import (
    TENSOR_MAGIC,
    BiMambaParams,
    BlockStackConfig,
    FeatureSequence,
    HydraParams,
    QkvTriple,
    ScanParams,
    apply_mixer,
    bimamba_apply,
    bimamba_mixer,
    draw_orthogonal_features,
    favor_attention,
    favor_mixer,
    hydra_apply,
    hydra_mixer,
    init_stack,
    layer_norm_apply,
    load_tensors,
    make_rng,
    save_tensors,
    ssm_mixer,
    ssm_scan,
    stack_forward,
    stack_from_tensors,
    with_zeroed_projections,
)
from mixerlab import bench
from mixerlab.cli import (
    ConfigError,
    RunConfig,
    _build_parser,
    _equiv_case_err,
    main,
    parse_config_file,
    resolve_config,
)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _random_scan_params_reference(rng, T, N):
    """Decays in [0.05, 1], and b and c standard normal times a 10^U(-1, 1)
    scale each."""
    return ScanParams(
        a=rng.uniform(0.05, 1.0, T),
        b=rng.standard_normal((T, N)) * 10.0 ** rng.uniform(-1.0, 1.0),
        c=rng.standard_normal((T, N)) * 10.0 ** rng.uniform(-1.0, 1.0),
    )


def _favor_case_reference(rng, T, d, r):
    """q, k, v at width d, then r (drawn in [1, 16] when None), then the
    feature seed; returns the fast and the materialized outputs."""
    scale = 1.0 / np.sqrt(d)
    qkv = QkvTriple(
        q=rng.standard_normal((T, d)) * scale,
        k=rng.standard_normal((T, d)) * scale,
        v=rng.standard_normal((T, d)),
    )
    r = int(rng.integers(1, 17)) if r is None else r
    omega = draw_orthogonal_features(d, r, int(rng.integers(0, 2**62)))
    direct = favor_attention(qkv, omega).data
    return direct, apply_mixer(favor_mixer(qkv.q, qkv.k, omega), FeatureSequence(qkv.v)).data


def _scan_case_reference(kind, rng, T, N):
    """x, then the parameters, each hydra drawing its forward, backward
    and diagonal parts in that order; returns the fast and the
    materialized outputs."""
    x = rng.standard_normal(T)
    xs = FeatureSequence(x[:, None])
    if kind == "ssm":
        p = _random_scan_params_reference(rng, T, N)
        return ssm_scan(p, x), apply_mixer(ssm_mixer(p), xs).data[:, 0]
    if kind == "bimamba":
        p = BiMambaParams(
            _random_scan_params_reference(rng, T, N), _random_scan_params_reference(rng, T, N)
        )
        return bimamba_apply(p, x), apply_mixer(bimamba_mixer(p), xs).data[:, 0]
    p = HydraParams(
        _random_scan_params_reference(rng, T, N),
        _random_scan_params_reference(rng, T, N),
        rng.standard_normal(T),
    )
    return hydra_apply(p, x), apply_mixer(hydra_mixer(p), xs).data[:, 0]


def _equiv_case_err_reference(kind, rng, force_T):
    """One equiv case with each kind's draw and comparison spelled out:
    T, then N or d, then the rest of the case."""
    if kind == "favor":
        T = force_T if force_T is not None else int(rng.integers(1, 17))
        direct, via_mixer = _favor_case_reference(rng, T, int(rng.integers(1, 9)), None)
    else:
        T = force_T if force_T is not None else int(rng.integers(1, 33))
        direct, via_mixer = _scan_case_reference(kind, rng, T, int(rng.integers(1, 9)))
    return float(np.max(np.abs(direct - via_mixer)))


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

    def test_presets_are_the_block_stack_presets(self):
        for name in BlockStackConfig._PRESETS:
            cfg = RunConfig(preset=name)
            shape = BlockStackConfig.preset(name)
            assert (cfg.d_model, cfg.num_blocks) == (shape.d_model, shape.num_blocks)

    def test_unknown_preset_exits_2(self, tmp_path, capsys):
        assert main(["demo", "--preset", "imaginary", "--out", str(tmp_path)]) == 2
        assert "unknown preset 'imaginary'" in capsys.readouterr().err

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
        with pytest.raises(ConfigError, match="zero_weights must be a boolean, got 1"):
            RunConfig(zero_weights=1)

    def test_first_bad_int_field_is_named(self):
        """Positive-int fields are checked in field order."""
        with pytest.raises(ConfigError, match="^T must be"):
            RunConfig(bench_r=0, repeats=True, T=0)
        with pytest.raises(ConfigError, match="^repeats must be"):
            RunConfig(bench_r=0, repeats=True)

    def test_list_entries_must_be_positive_integers(self):
        for kw in ({"r_values": (0,)}, {"t_values": (4, -1)}, {"r_values": (2, True)}):
            with pytest.raises(ConfigError):
                RunConfig(**kw)

    def test_tol_checked_like_rank_tolerances(self):
        for tol in (True, False, float("nan"), float("inf"), -1e-9, "1e-9"):
            with pytest.raises(ConfigError, match="tol must be a positive finite number"):
                RunConfig(tol=tol)
        assert RunConfig(tol=1).tol == 1
        assert RunConfig(tol=np.float64(1e-6)).tol == 1e-6


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

    def test_none_parses_to_none(self):
        ns = _build_parser().parse_args(["diagnose", "--qk_dump", "none", "--preset", "none"])
        cfg = resolve_config(ns)
        assert cfg.qk_dump is None and cfg.preset is None


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_python_dash_m_mixerlab_runs_main_without_warnings(self):
        """``python -m mixerlab`` runs the command line in a fresh process
        and writes nothing to stderr."""
        src = str(Path(mixerlab.__file__).parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.run(
            [sys.executable, "-m", "mixerlab", "--help"],
            capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout.startswith("usage: mixerlab")

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["equiv", "--frobnicate", "1"]) == 2

    def test_bad_value_is_config_error(self, tmp_path, capsys):
        assert main(["demo", "--T", "zero", "--out", str(tmp_path)]) == 2

    def test_empty_list_is_config_error(self, tmp_path, capsys):
        assert main(["diagnose", "--r_values", ",", "--out", str(tmp_path)]) == 2
        assert "empty list" in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        (["demo", "--out", ""], "output_dir must be a nonempty path"),
        (["diagnose", "--qk_dump", ""], "qk_dump must be a path"),
        (["demo", "--zero_weights", "maybe"], "not a boolean: 'maybe'"),
    ], ids=["out", "qk_dump", "zero_weights"])
    def test_bad_path_or_flag_is_config_error(self, tmp_path, capsys, args, message):
        out = [] if "--out" in args else ["--out", str(tmp_path)]
        assert main(args + out) == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_missing_config_file_is_io_error(self, tmp_path, capsys):
        assert main(["equiv", "--config", str(tmp_path / "absent.cfg")]) == 3

    def test_unknown_mixer_kind_exits_2_for_every_command(self, tmp_path, capsys):
        assert main(["equiv", "--mixer_kind", "bogus", "--out", str(tmp_path)]) == 2
        assert "bogus" in capsys.readouterr().err
        assert not (tmp_path / "equiv.csv").exists()

    def test_missing_dump_file_is_io_error(self, tmp_path, capsys):
        code = main(
            ["diagnose", "--qk_dump", str(tmp_path / "absent.bin"), "--out", str(tmp_path)]
        )
        assert code == 3


class TestEquivCommand:
    @pytest.mark.parametrize("kind", ["ssm", "bimamba", "hydra", "favor"])
    def test_cases_match_the_reference_draws_bit_for_bit(self, kind):
        for seed in (0, 3, 42, 2**63 + 5):
            got = make_rng(seed, 10)
            ref = make_rng(seed, 10)
            for case in range(12):
                force_T = 1 if case % 4 == 0 else None
                assert _equiv_case_err(kind, got, force_T) == _equiv_case_err_reference(
                    kind, ref, force_T
                )
            # both generators must have consumed the same draws
            assert got.integers(0, 2**62) == ref.integers(0, 2**62)

    @pytest.mark.parametrize("label", ["ssm_scan", "bimamba_scan", "hydra_scan", "favor_attention"])
    def test_bench_draws_its_inputs_like_equiv(self, label):
        """A bench op at fixed sizes times the fast form of the case the
        reference draws from the same stream at those sizes."""
        kind = label.split("_")[0]
        for seed, stream in ((0, 0), (9, 2), (2**63 + 5, 4)):
            for T, d, size in ((1, 1, 1), (24, 3, 5), (40, 6, 16)):
                got = bench._setup(label, T, d, size, seed, stream)()
                ref = make_rng(seed, stream)
                if kind == "favor":
                    want, _ = _favor_case_reference(ref, T, d, size)
                else:
                    want, _ = _scan_case_reference(kind, ref, T, size)
                assert np.array_equal(got, want)

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
        kinds = [r[0] for r in rows[1:]]
        assert kinds == ["softmax", "favor"] * 2 + ["softmax_mean", "favor_mean"]
        by_kind = {}
        for r in rows[1:]:
            by_kind.setdefault(r[0], []).append(r)
        for row in by_kind["softmax"]:
            assert int(row[4]) == 64
            assert row[3] == ""
        for row in by_kind["favor"]:
            assert int(row[4]) <= 16
            assert int(row[3]) == 16

    def test_memory_does_not_grow_with_num_heads(self, tmp_path, capsys):
        """Each head's maps are ranked, summed into their mean and dropped,
        so eight heads take less than one T x T map more than two heads.
        With every head's maps held at once it was about 16 maps more."""
        T = 256
        peaks = {}
        for heads in (2, 8):
            tracemalloc.start()
            try:
                code = main(
                    ["diagnose", "--T", str(T), "--d_model", "64", "--num_heads", str(heads),
                     "--r", "16", "--approx_seeds", "1", "--r_values", "16",
                     "--out", str(tmp_path)]
                )
                peaks[heads] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
        assert peaks[8] - peaks[2] < 8 * T * T

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

    @pytest.mark.parametrize("manifest", [
        "q 1099511627776 0\n\n", "q 4x2 0\nk 0x2 64\n\n", "q 4x2 0\nk 4x2 64\n",
        "q 4x2 0\nq 4x2 64\n\n",
    ], ids=["2**40-elements", "empty-k", "no-terminator", "duplicate-name"])
    def test_dump_the_writer_would_refuse_exits_2(self, tmp_path, capsys, manifest):
        """A dump claiming more data than the file holds, an empty tensor,
        a manifest with no blank terminator line or a duplicate name is a
        ValueError (exit 2), never a MemoryError."""
        path = tmp_path / "qk.bin"
        path.write_bytes(f"{TENSOR_MAGIC}\n{manifest}".encode() + bytes(64))
        code = main(["diagnose", "--qk_dump", str(path), "--out", str(tmp_path)])
        assert code == 2
        assert "qk.bin" in capsys.readouterr().err
        assert not (tmp_path / "rank_report.csv").exists()

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_dump_from_a_pipe_exits_2(self, tmp_path, capsys):
        """`cat qk.bin | mixerlab diagnose --qk_dump /dev/stdin` is refused
        by name (exit 2), not with an illegal-seek I/O error (exit 3)."""
        path = tmp_path / "qk.bin"
        save_tensors(path, {"q": np.zeros((4, 2)), "k": np.zeros((4, 2))})
        r, w = os.pipe()
        try:
            os.write(w, path.read_bytes())
            os.close(w)
            code = main(["diagnose", "--qk_dump", f"/dev/fd/{r}", "--out", str(tmp_path)])
        finally:
            os.close(r)
        assert code == 2
        assert "a container must be a seekable file" in capsys.readouterr().err
        assert not (tmp_path / "rank_report.csv").exists()

    def test_overflowing_dump_exits_2_without_a_warning(self, tmp_path, capsys):
        """q = 1e200 overflows the feature map: the typed error is the only
        message, with no numpy RuntimeWarning before it."""
        rng = np.random.default_rng(4)
        save_tensors(tmp_path / "qk.bin",
                     {"q": np.full((8, 4), 1e200), "k": rng.standard_normal((8, 4))})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["diagnose", "--qk_dump", str(tmp_path / "qk.bin"), "--r", "4",
                         "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == "error: feature map overflowed; inputs are too large\n"

    def test_indivisible_heads_rejected(self, tmp_path, capsys):
        code = main(
            ["diagnose", "--d_model", "6", "--num_heads", "4", "--out", str(tmp_path)]
        )
        assert code == 2

    @pytest.mark.parametrize("q, k, shown", [
        (np.zeros(4), np.zeros(4), "(4,)"),
        (np.zeros((4, 2)), np.zeros((4, 3)), "(4, 3)"),
        (np.zeros((4, 2)), np.zeros((5, 2)), "(5, 2)"),
    ], ids=["1-d", "widths-differ", "lengths-differ"])
    def test_dump_with_bad_shapes_exits_2(self, tmp_path, capsys, q, k, shown):
        save_tensors(tmp_path / "qk.bin", {"q": q, "k": k})
        code = main(
            ["diagnose", "--qk_dump", str(tmp_path / "qk.bin"), "--out", str(tmp_path)]
        )
        assert code == 2
        assert shown in capsys.readouterr().err
        assert not (tmp_path / "rank_report.csv").exists()

    @pytest.mark.parametrize("extra", ["v", "block0.ffw_in.w1"])
    def test_dump_holds_exactly_q_and_k(self, tmp_path, capsys, extra):
        """Like the stack loader, the dump refuses tensors it would not read,
        naming the first."""
        qk = {"q": np.zeros((4, 2)), "k": np.zeros((4, 2))}
        save_tensors(tmp_path / "qk.bin", {**qk, extra: np.zeros((4, 2)), "z": np.zeros(1)})
        code = main(
            ["diagnose", "--qk_dump", str(tmp_path / "qk.bin"), "--out", str(tmp_path)]
        )
        assert code == 2
        assert repr(extra) in capsys.readouterr().err
        assert not (tmp_path / "rank_report.csv").exists()


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

    @pytest.mark.parametrize("kind", ["hydra", "bimamba", "favor", "softmax"])
    def test_saved_weights_reproduce_checksum(self, tmp_path, capsys, kind):
        """demo_weights.bin is the whole stack: reloaded and run on the demo
        input, it gives the output whose checksum demo.csv records."""
        assert main(self.DEMO_ARGS + ["--mixer_kind", kind, "--out", str(tmp_path)]) == 0
        cfg = BlockStackConfig(d_model=8, num_blocks=3, kernel_size=3, mixer_kind=kind,
                               num_heads=2, feature_count=8, state_size=4)
        tensors = load_tensors(tmp_path / "demo_weights.bin")
        blocks = stack_from_tensors(cfg, tensors, 42)
        x = FeatureSequence(make_rng(42, 5).standard_normal((12, 8)))
        y = stack_forward(x, cfg, blocks).data
        checksum = hashlib.sha256(np.ascontiguousarray(y).tobytes()).hexdigest()
        assert read_csv(tmp_path / "demo.csv")[-1][3] == checksum

    @pytest.mark.parametrize("kind", ["softmax", "favor"])
    def test_indivisible_heads_rejected(self, tmp_path, capsys, kind):
        code = main(
            ["demo", "--mixer_kind", kind, "--d_model", "6", "--num_heads", "4",
             "--T", "4", "--num_blocks", "1", "--out", str(tmp_path)]
        )
        assert code == 2
        assert "d_model=6 is not divisible by num_heads=4" in capsys.readouterr().err
        assert not (tmp_path / "demo.csv").exists()

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

    @pytest.mark.parametrize("value", ["false", "0", "no"])
    def test_false_zero_weights_is_the_default_run(self, tmp_path, capsys, value):
        assert main(self.DEMO_ARGS + ["--out", str(tmp_path / "a")]) == 0
        assert main(self.DEMO_ARGS + ["--zero_weights", value, "--out", str(tmp_path / "b")]) == 0
        for name in ("demo.csv", "demo_weights.bin"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_zeroed_weights_reduce_blocks_to_layer_norm(self, tmp_path, capsys):
        """With the zeroing flag, block i's output is the layer norm of its
        input, so the logged norms must match an independent norm chain."""
        code = main(
            self.DEMO_ARGS + ["--zero_weights", "true", "--out", str(tmp_path)]
        )
        assert code == 0
        rows = read_csv(tmp_path / "demo.csv")
        norm_rows = [r for r in rows[1:] if r[0] == "block_norm"]

        cfg = BlockStackConfig(d_model=8, num_blocks=3, kernel_size=3, mixer_kind="hydra",
                               num_heads=2, feature_count=8, state_size=4)
        blocks = [with_zeroed_projections(b) for b in init_stack(cfg, 42)]
        y = FeatureSequence(make_rng(42, 5).standard_normal((12, 8)))
        for i, block in enumerate(blocks):
            y = layer_norm_apply(y, block.norm_scale, block.norm_shift)
            assert float(norm_rows[i][3]) == float(np.sqrt(np.sum(y.data * y.data)))
