"""Acceptance gate: every primary contract checked at its stated
tolerance, one printed verdict line per criterion.

Run order follows the numbering; each test prints "[criterion N] PASS"
or "... FAIL" directly to the terminal so the gate is auditable from
the test log alone.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from mixerlab import (
    BiMambaParams,
    BlockStackConfig,
    FeatureSequence,
    HydraParams,
    MixerClass,
    ScanParams,
    apply_mixer,
    approximation_error_curve,
    bimamba_apply,
    bimamba_mixer,
    block_forward,
    check_structure,
    draw_orthogonal_features,
    favor_mixer,
    fit_loglog_slope,
    hydra_apply,
    hydra_mixer,
    init_stack,
    layer_norm_apply,
    numerical_rank,
    softmax_mixer,
    ssm_mixer,
    ssm_scan,
    time_operation,
    with_zeroed_projections,
)
from mixerlab.cli import main as cli_main


def verdict(capsys, number, ok):
    with capsys.disabled():
        print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}")
    assert ok


def random_scan_params(rng, T, N):
    """Mixed signs and magnitudes in b and c, decay across (0, 1]."""
    return ScanParams(
        a=rng.uniform(0.05, 1.0, T),
        b=rng.standard_normal((T, N)) * 10.0 ** rng.uniform(-1.0, 1.0),
        c=rng.standard_normal((T, N)) * 10.0 ** rng.uniform(-1.0, 1.0),
    )


def test_criterion_01_scan_mixer_equivalence(capsys):
    """200 seeded instances per family, max elementwise gap <= 1e-9,
    total runtime under 10 seconds."""
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for case in range(200):
        T = 1 if case == 0 else int(rng.integers(1, 33))
        N = int(rng.integers(1, 9))
        x = rng.standard_normal(T)
        xs = FeatureSequence(x[:, None])

        p = random_scan_params(rng, T, N)
        gap = np.max(np.abs(ssm_scan(p, x) - apply_mixer(ssm_mixer(p), xs).data[:, 0]))
        worst = max(worst, float(gap))

        bp = BiMambaParams(random_scan_params(rng, T, N), random_scan_params(rng, T, N))
        gap = np.max(
            np.abs(bimamba_apply(bp, x) - apply_mixer(bimamba_mixer(bp), xs).data[:, 0])
        )
        worst = max(worst, float(gap))

        hp = HydraParams(
            random_scan_params(rng, T, N),
            random_scan_params(rng, T, N),
            rng.standard_normal(T),
        )
        gap = np.max(
            np.abs(hydra_apply(hp, x) - apply_mixer(hydra_mixer(hp), xs).data[:, 0])
        )
        worst = max(worst, float(gap))
    elapsed = time.perf_counter() - start
    verdict(capsys, 1, worst <= 1e-9 and elapsed < 10.0)


def test_criterion_02_structural_classes(capsys):
    """ssm semiseparable(N); hydra and bimamba quasiseparable(N); hydra
    fails semiseparable(N). 50 of 50 seeded trials."""
    rng = np.random.default_rng(1002)
    ok = True
    for _ in range(50):
        T = int(rng.integers(4, 13))
        N = int(rng.integers(1, 5))
        fwd = random_scan_params(rng, T, N)
        bwd = random_scan_params(rng, T, N)
        delta = rng.standard_normal(T)
        ok &= check_structure(ssm_mixer(fwd)).ok
        ok &= check_structure(bimamba_mixer(BiMambaParams(fwd, bwd))).ok
        hm = hydra_mixer(HydraParams(fwd, bwd, delta))
        ok &= check_structure(hm).ok
        ok &= not check_structure(hm, class_tag=MixerClass.semiseparable(N)).ok
    verdict(capsys, 2, ok)


def test_criterion_03_hydra_diagonal_decoupling(capsys):
    """Any off-diagonal parameter perturbation leaves the hydra diagonal
    bit-identical; the same fwd.b perturbation moves the bimamba
    diagonal. 50 of 50 trials."""
    rng = np.random.default_rng(1003)
    ok = True
    for _ in range(50):
        T = int(rng.integers(3, 10))
        N = int(rng.integers(1, 4))
        fwd = random_scan_params(rng, T, N)
        bwd = random_scan_params(rng, T, N)
        delta = rng.standard_normal(T)
        base_diag = np.diag(hydra_mixer(HydraParams(fwd, bwd, delta)).m).copy()

        t_idx = int(rng.integers(0, T))
        n_idx = int(rng.integers(0, N))

        def bump_matrix(m):
            out = m.copy()
            out[t_idx, n_idx] += 0.37
            return out

        def bump_decay(a):
            out = a.copy()
            out[t_idx] = min(1.0, out[t_idx] * 0.5 + 1e-3)
            return out

        perturbed = [
            HydraParams(ScanParams(fwd.a, bump_matrix(fwd.b), fwd.c), bwd, delta),
            HydraParams(ScanParams(fwd.a, fwd.b, bump_matrix(fwd.c)), bwd, delta),
            HydraParams(ScanParams(bump_decay(fwd.a), fwd.b, fwd.c), bwd, delta),
            HydraParams(fwd, ScanParams(bwd.a, bump_matrix(bwd.b), bwd.c), delta),
            HydraParams(fwd, ScanParams(bwd.a, bwd.b, bump_matrix(bwd.c)), delta),
            HydraParams(fwd, ScanParams(bump_decay(bwd.a), bwd.b, bwd.c), delta),
        ]
        for hp in perturbed:
            ok &= np.array_equal(np.diag(hydra_mixer(hp).m), base_diag)

        bm_base = np.diag(bimamba_mixer(BiMambaParams(fwd, bwd)).m)
        bm_bumped = np.diag(
            bimamba_mixer(
                BiMambaParams(ScanParams(fwd.a, bump_matrix(fwd.b), fwd.c), bwd)
            ).m
        )
        ok &= not np.array_equal(bm_base, bm_bumped)
    verdict(capsys, 3, ok)


def test_criterion_04_low_rank_bound(capsys):
    """favor rank <= r in 100 of 100 trials at T=64, r in {4, 16};
    softmax rank == 64 in at least 99 of them."""
    T, d = 64, 8
    favor_ok = 0
    softmax_full = 0
    trials = 100
    for trial in range(trials):
        rng = np.random.default_rng(2000 + trial)
        q = rng.standard_normal((T, d))
        k = rng.standard_normal((T, d))
        r = 4 if trial % 2 == 0 else 16
        om = draw_orthogonal_features(d, r, 3000 + trial)
        if numerical_rank(favor_mixer(q, k, om)) <= r:
            favor_ok += 1
        if numerical_rank(softmax_mixer(q, k)) == T:
            softmax_full += 1
    verdict(capsys, 4, favor_ok == trials and softmax_full >= 99)


def test_criterion_05_approximation_trend(capsys):
    """Median relative error strictly decreasing over r in
    {16, 64, 256, 1024} at T=16, d=8, 32 seeds; the largest-r error is
    under half the smallest-r error. Under 30 seconds."""
    start = time.perf_counter()
    rng = np.random.default_rng(1005)
    q = rng.standard_normal((16, 8)) / np.sqrt(8.0)
    k = rng.standard_normal((16, 8)) / np.sqrt(8.0)
    curve = approximation_error_curve(q, k, [16, 64, 256, 1024], seeds=range(32))
    errs = [e for _, e in curve]
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    elapsed = time.perf_counter() - start
    verdict(capsys, 5, decreasing and errs[-1] < 0.5 * errs[0] and elapsed < 30.0)


def test_criterion_06_row_stochasticity(capsys):
    """softmax and favor mixer rows sum to 1 within 1e-10 and are
    nonnegative, 100 of 100 trials."""
    ok = True
    for trial in range(100):
        rng = np.random.default_rng(4000 + trial)
        T = int(rng.integers(2, 24))
        d = int(rng.integers(1, 8))
        q = rng.standard_normal((T, d))
        k = rng.standard_normal((T, d))
        sm = softmax_mixer(q, k).m
        ok &= bool(np.all(np.abs(sm.sum(axis=1) - 1.0) <= 1e-10))
        ok &= bool(np.all(sm >= 0.0))
        om = draw_orthogonal_features(d, int(rng.integers(1, 17)), 5000 + trial)
        fm = favor_mixer(q, k, om).m
        ok &= bool(np.all(np.abs(fm.sum(axis=1) - 1.0) <= 1e-10))
        ok &= bool(np.all(fm >= 0.0))
    verdict(capsys, 6, ok)


@pytest.mark.slow
def test_criterion_07_complexity_scaling(capsys):
    """Log-log slopes over T in {4096 .. 65536} at d=64: softmax >= 1.7,
    favor (r=256) <= 1.3, ssm and hydra scans (N=16) <= 1.3, every fit
    R^2 >= 0.95, all inside 10 minutes."""
    start = time.perf_counter()
    T_values = [4096, 8192, 16384, 32768, 65536]
    fits = {}
    for label, d, r_or_n in (
        ("softmax_attention", 64, 0),
        ("favor_attention", 64, 256),
        ("ssm_scan", 1, 16),
        ("hydra_scan", 1, 16),
    ):
        samples = time_operation(label, T_values, d=d, r_or_N=r_or_n, repeats=3, seed=7)
        fits[label] = fit_loglog_slope(samples)
    elapsed = time.perf_counter() - start
    ok = (
        fits["softmax_attention"].fitted_slope >= 1.7
        and fits["favor_attention"].fitted_slope <= 1.3
        and fits["ssm_scan"].fitted_slope <= 1.3
        and fits["hydra_scan"].fitted_slope <= 1.3
        and all(f.r_squared >= 0.95 for f in fits.values())
        and elapsed < 600.0
    )
    with capsys.disabled():
        for label, fit in fits.items():
            print(
                f"  {label}: slope={fit.fitted_slope:.3f} r_squared={fit.r_squared:.4f}"
            )
        print(f"  elapsed: {elapsed:.1f} s")
    verdict(capsys, 7, ok)


def test_criterion_08_dilation_schedule(capsys):
    """Preset dilation schedules match exactly."""
    denoiser = BlockStackConfig.preset("latent-denoiser")
    generator = BlockStackConfig.preset("token-generator")
    ok = (
        denoiser.d_model == 256
        and denoiser.num_blocks == 8
        and list(denoiser.dilations()) == [1, 1, 1, 1, 2, 2, 2, 2]
        and generator.d_model == 512
        and generator.num_blocks == 12
        and list(generator.dilations()) == [1, 1, 1, 1, 2, 2, 2, 2, 4, 4, 4, 4]
    )
    verdict(capsys, 8, ok)


def test_criterion_09_block_contract(capsys):
    """Shape preserved for all four mixer kinds; zeroed projections make
    the block exactly its final layer norm."""
    rng = np.random.default_rng(1009)
    ok = True
    for kind in ("hydra", "bimamba", "favor", "softmax"):
        cfg = BlockStackConfig(d_model=16, num_blocks=1, kernel_size=3, mixer_kind=kind,
                               num_heads=2, feature_count=8, state_size=4)
        (block,) = init_stack(cfg, 77)
        x = FeatureSequence(rng.standard_normal((20, 16)))
        y = block_forward(x, block)
        ok &= y.data.shape == (20, 16)
        zeroed = with_zeroed_projections(block)
        expected = layer_norm_apply(x, zeroed.norm_scale, zeroed.norm_shift)
        ok &= np.array_equal(block_forward(x, zeroed).data, expected.data)
    verdict(capsys, 9, ok)


def test_criterion_10_byte_identical_outputs(capsys, tmp_path):
    """equiv, diagnose, and demo each produce byte-identical files across
    two runs with the same seed and config."""
    commands = {
        "equiv": ["equiv", "--cases", "10"],
        "diagnose": [
            "diagnose", "--T", "24", "--d_model", "16", "--num_heads", "2",
            "--r", "8", "--approx_seeds", "2", "--r_values", "4,8",
        ],
        "demo": [
            "demo", "--T", "12", "--d_model", "8", "--num_heads", "2",
            "--num_blocks", "2", "--kernel_size", "3", "--N", "4", "--r", "8",
        ],
    }
    ok = True
    for name, argv in commands.items():
        outs = []
        for run in ("first", "second"):
            out_dir = tmp_path / name / run
            code = cli_main(argv + ["--out", str(out_dir)])
            ok &= code == 0
            outs.append(out_dir)
        first_files = sorted(p.name for p in outs[0].iterdir())
        second_files = sorted(p.name for p in outs[1].iterdir())
        ok &= first_files == second_files and len(first_files) > 0
        for fname in first_files:
            ok &= (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
    verdict(capsys, 10, ok)
