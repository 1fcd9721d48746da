"""Tests for mixer containers, application, and structure checking."""

import numpy as np
import pytest

from mixerlab import (
    DEFAULT_RANK_TOL,
    FeatureSequence,
    MatrixMixer,
    MixerClass,
    ShapeError,
    StructureReport,
    apply_mixer,
    check_structure,
)
from mixerlab import mixer_core
from mixerlab.ssm import (
    BiMambaParams,
    HydraParams,
    ScanParams,
    bimamba_mixer,
    hydra_mixer,
    ssm_mixer,
)


def oracle_block_rank(block, sigma_ref, tol):
    """Rank of one block counted against the whole matrix's top singular value."""
    if block.size == 0:
        return 0
    s = np.linalg.svd(block, compute_uv=False)
    return int(np.sum(s > tol * sigma_ref))


def oracle_structure_report(m, tag, tol=DEFAULT_RANK_TOL):
    """Brute-force sweep: one full SVD of every maximal off-diagonal block,
    lower then upper at each split, as check_structure reports them."""
    T = m.shape[0]
    sigma_ref = np.linalg.svd(m, compute_uv=False)[0] if np.any(m) else 0.0
    upper_limit = 0 if tag.kind == "semiseparable" else tag.order
    worst = 0
    violations = []
    for i in range(1, T):
        lower = oracle_block_rank(m[i:, :i], sigma_ref, tol)
        upper = oracle_block_rank(m[:i, i:], sigma_ref, tol)
        worst = max(worst, lower, upper)
        if lower > tag.order:
            violations.append(((i, T, 0, i), lower))
        if upper > upper_limit:
            violations.append(((0, i, i, T), upper))
    return StructureReport(tag, worst, tuple(violations))


@pytest.fixture
def exact_block_svds(monkeypatch):
    """Count the blocks check_structure hands to an exact SVD."""
    calls = []
    exact = mixer_core._block_rank

    def counted(block, tol, sigma_ref):
        calls.append(block.shape)
        return exact(block, tol, sigma_ref)

    monkeypatch.setattr(mixer_core, "_block_rank", counted)
    return calls


def seeded_scan_params(rng, T, N):
    # slow decays keep distant entries above the rank tolerance, so the
    # off-diagonal blocks reach their full order
    return ScanParams(
        a=rng.uniform(0.8, 1.0, T),
        b=rng.standard_normal((T, N)),
        c=rng.standard_normal((T, N)),
    )


def seeded_scan_mixers(seed, T, N):
    rng = np.random.default_rng(seed)

    def scan():
        return seeded_scan_params(rng, T, N)

    return {
        "ssm": ssm_mixer(scan()),
        "bimamba": bimamba_mixer(BiMambaParams(scan(), scan())),
        "hydra": hydra_mixer(HydraParams(scan(), scan(), rng.standard_normal(T))),
    }


class TestFeatureSequence:
    def test_shape_properties(self):
        x = FeatureSequence(np.zeros((5, 3)))
        assert x.T == 5
        assert x.d == 3

    def test_rejects_wrong_ndim(self):
        with pytest.raises(ShapeError):
            FeatureSequence(np.zeros(4))
        with pytest.raises(ShapeError):
            FeatureSequence(np.zeros((2, 2, 2)))

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            FeatureSequence(np.zeros((0, 3)))

    def test_rejects_nonfinite(self):
        bad = np.ones((3, 2))
        bad[1, 1] = np.nan
        with pytest.raises(ValueError):
            FeatureSequence(bad)

    def test_data_is_read_only_copy(self):
        src = np.ones((2, 2))
        x = FeatureSequence(src)
        src[0, 0] = 99.0
        assert x.data[0, 0] == 1.0
        with pytest.raises(ValueError):
            x.data[0, 0] = 5.0


class TestMixerClass:
    def test_dense_has_no_order(self):
        c = MixerClass.dense()
        assert c.kind == "dense"
        assert c.order is None

    def test_ordered_kinds_require_positive_order(self):
        assert MixerClass.low_rank(3).order == 3
        assert MixerClass.semiseparable(2).order == 2
        assert MixerClass.quasiseparable(1).order == 1
        for maker in (MixerClass.low_rank, MixerClass.semiseparable, MixerClass.quasiseparable):
            with pytest.raises(ValueError):
                maker(0)

    def test_describe_mentions_kind(self):
        assert "semiseparable" in MixerClass.semiseparable(4).describe()
        assert "dense" in MixerClass.dense().describe()


class TestMatrixMixer:
    def test_rejects_nonsquare(self):
        with pytest.raises(ShapeError):
            MatrixMixer(np.zeros((3, 4)), MixerClass.dense())

    def test_tag_is_a_claim_not_a_constraint(self):
        """A dense random matrix may carry any tag; only check_structure judges it."""
        rng = np.random.default_rng(0)
        m = MatrixMixer(rng.standard_normal((4, 4)), MixerClass.semiseparable(1))
        assert m.class_tag.kind == "semiseparable"
        report = check_structure(m)
        assert not report.ok

    def test_T_property(self):
        m = MatrixMixer(np.eye(6), MixerClass.dense())
        assert m.T == 6


class TestApplyMixer:
    def test_zero_mixer_gives_zero_output(self):
        x = FeatureSequence(np.ones((4, 3)))
        mixer = MatrixMixer(np.zeros((4, 4)), MixerClass.dense())
        y = apply_mixer(mixer, x)
        assert np.array_equal(y.data, np.zeros((4, 3)))

    def test_matches_triple_loop_oracle(self):
        """Random 4x4 mixer on 4x2 input, checked entry by entry."""
        rng = np.random.default_rng(7)
        m = rng.standard_normal((4, 4))
        x = rng.standard_normal((4, 2))
        y = apply_mixer(MatrixMixer(m, MixerClass.dense()), FeatureSequence(x))
        expected = np.zeros((4, 2))
        for i in range(4):
            for j in range(4):
                for col in range(2):
                    expected[i, col] += m[i, j] * x[j, col]
        np.testing.assert_allclose(y.data, expected, rtol=0, atol=1e-12)

    def test_rejects_length_mismatch(self):
        mixer = MatrixMixer(np.eye(4), MixerClass.dense())
        with pytest.raises(ShapeError):
            apply_mixer(mixer, FeatureSequence(np.zeros((5, 2))))

    def test_identity_mixer_preserves_input(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 2))
        y = apply_mixer(MatrixMixer(np.eye(6), MixerClass.dense()), FeatureSequence(x))
        np.testing.assert_allclose(y.data, x, rtol=0, atol=0)


class TestCheckStructure:
    def test_identity_is_quasiseparable_one(self):
        """All strictly-off-diagonal blocks of I are zero, so rank 0 everywhere."""
        m = MatrixMixer(np.eye(4), MixerClass.quasiseparable(1))
        report = check_structure(m)
        assert report.ok
        assert report.max_offdiag_block_rank == 0
        assert report.violations == ()

    def test_rank_one_outer_product_is_low_rank_one(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal(6)
        v = rng.standard_normal(6)
        m = MatrixMixer(np.outer(u, v), MixerClass.low_rank(1))
        assert check_structure(m).ok

    def test_dense_tag_always_passes(self):
        rng = np.random.default_rng(2)
        m = MatrixMixer(rng.standard_normal((5, 5)), MixerClass.dense())
        assert check_structure(m).ok

    def test_ssm_mixer_against_block_svd_oracle(self):
        """Scan materialization passes order N and fails order N-1, and the
        reported worst off-diagonal block rank matches a brute-force sweep."""
        rng = np.random.default_rng(42)
        T, N = 8, 2
        params = ScanParams(
            a=rng.uniform(0.2, 1.0, T),
            b=rng.standard_normal((T, N)),
            c=rng.standard_normal((T, N)),
        )
        mixer = ssm_mixer(params)
        ok_report = check_structure(mixer, class_tag=MixerClass.semiseparable(2))
        assert ok_report.ok
        bad_report = check_structure(mixer, class_tag=MixerClass.semiseparable(1))
        assert not bad_report.ok
        assert len(bad_report.violations) >= 1
        oracle = oracle_structure_report(mixer.m, MixerClass.semiseparable(2), 1e-6)
        assert ok_report == oracle
        assert oracle.max_offdiag_block_rank == 2
        assert bad_report == oracle_structure_report(mixer.m, MixerClass.semiseparable(1), 1e-6)

    def test_semiseparable_rejects_upper_mass(self):
        """An upper-triangular entry kills the lower-triangular class."""
        m = np.tril(np.ones((5, 5)))
        m[0, 4] = 1.0
        report = check_structure(MatrixMixer(m, MixerClass.semiseparable(5)))
        assert not report.ok

    def test_quasiseparable_tolerates_upper_mass_within_order(self):
        m = np.tril(np.ones((5, 5)))
        m[0, 4] = 1.0
        report = check_structure(MatrixMixer(m, MixerClass.quasiseparable(5)))
        assert report.ok

    def test_low_rank_violation_reports_rank(self):
        report = check_structure(MatrixMixer(np.eye(4), MixerClass.low_rank(1)))
        assert not report.ok
        ((_, rank),) = report.violations
        assert rank == 4

    def test_class_tag_argument_overrides_stored_tag(self):
        m = MatrixMixer(np.eye(4), MixerClass.dense())
        report = check_structure(m, class_tag=MixerClass.quasiseparable(1))
        assert report.checked_class.kind == "quasiseparable"
        assert report.ok

    def test_tolerance_is_relative_to_global_scale(self):
        """Tiny off-diagonal leakage below tol*sigma_max does not count."""
        m = np.eye(4) * 100.0
        m[3, 0] = 1e-8
        assert check_structure(MatrixMixer(m, MixerClass.quasiseparable(1))).ok
        m[3, 0] = 50.0
        report = check_structure(MatrixMixer(m, MixerClass.quasiseparable(1)))
        assert report.max_offdiag_block_rank == 1
        assert report.ok

    def test_seeded_sweep_matches_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            T = int(rng.integers(2, 9))
            m = rng.standard_normal((T, T))
            tag = MixerClass.quasiseparable(T)
            report = check_structure(MatrixMixer(m, tag), tol=1e-6)
            assert report == oracle_structure_report(m, tag, 1e-6)

    def test_bool_tol_rejected(self):
        mixer = MatrixMixer(np.eye(3), MixerClass.quasiseparable(1))
        for tol in (True, False, 0.0, -1e-6, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                check_structure(mixer, tol=tol)


class TestCompressedSweep:
    """check_structure against the brute-force sweep: reports compare ==,
    violations included, in the same (lower, upper)-per-split order."""

    @pytest.mark.parametrize("T", [1, 2, 3, 17, 64, 256])
    def test_scan_mixers_match_oracle(self, T):
        N = 4
        mixers = seeded_scan_mixers(100 + T, T, N)
        for label, mixer in mixers.items():
            report = check_structure(mixer)
            assert report == oracle_structure_report(mixer.m, mixer.class_tag), label
            assert report.ok, label
        hydra = mixers["hydra"]
        mistag = MixerClass.semiseparable(N)
        report = check_structure(hydra, class_tag=mistag)
        assert report == oracle_structure_report(hydra.m, mistag)
        assert report.ok == (T == 1)

    def test_structured_sweep_stays_compressed(self, exact_block_svds):
        """At T=256 every structured count comes from the thin factors:
        no block falls back to an exact SVD."""
        for mixer in seeded_scan_mixers(7, 256, 4).values():
            assert check_structure(mixer).ok
        assert exact_block_svds == []

    @pytest.mark.parametrize("order", [1, 2, 5])
    @pytest.mark.parametrize("T", [12, 40, 150])
    def test_dense_random_against_quasiseparable_claim(self, T, order):
        m = np.random.default_rng(T * 10 + order).standard_normal((T, T))
        tag = MixerClass.quasiseparable(order)
        report = check_structure(MatrixMixer(m, tag))
        assert report == oracle_structure_report(m, tag)
        assert not report.ok

    @pytest.mark.parametrize("kind", ["semiseparable", "quasiseparable"])
    def test_zero_and_identity(self, kind):
        tag = MixerClass(kind, 1)
        for m in (np.zeros((9, 9)), np.eye(9)):
            report = check_structure(MatrixMixer(m, tag))
            assert report == oracle_structure_report(m, tag)
            assert report == StructureReport(tag, 0, ())

    def test_sub_threshold_parts_add_up(self):
        """Entries each below the threshold share a row, so a wide enough
        block has a singular value above it: nothing below the threshold
        may be dropped for free."""
        T = 24
        m = np.eye(T)
        m[T - 1, : T - 1] = 0.4 * DEFAULT_RANK_TOL
        tag = MixerClass.semiseparable(1)
        report = check_structure(MatrixMixer(m, tag))
        assert report == oracle_structure_report(m, tag)
        assert report.max_offdiag_block_rank == 1

    @pytest.mark.parametrize("offset", [1e-9, -1e-9])
    def test_value_at_threshold_is_recounted_exactly(self, offset, exact_block_svds):
        """One upper-block singular value sits at tol * sigma_ref * (1 +/- 1e-9),
        inside the certification band, so those blocks get exact SVDs."""
        T = 17
        m = np.eye(T)
        for _ in range(4):  # sigma_ref moves with the entry; settle the fixed point
            m[0, T - 1] = DEFAULT_RANK_TOL * np.linalg.svd(m, compute_uv=False)[0] * (1 + offset)
        sigma_ref = np.linalg.svd(m, compute_uv=False)[0]
        assert m[0, T - 1] / (DEFAULT_RANK_TOL * sigma_ref) - 1 == pytest.approx(offset, rel=1e-3)
        tag = MixerClass.semiseparable(1)
        report = check_structure(MatrixMixer(m, tag))
        assert report == oracle_structure_report(m, tag)
        assert report.ok == (offset < 0)
        assert exact_block_svds

    @pytest.mark.parametrize("make", [hydra_mixer, bimamba_mixer])
    def test_scan_mixers_at_T1024(self, make):
        """The class claims hold at a size blocks run at, in the fast suite."""
        T, N = 1024, 16
        rng = np.random.default_rng(1024)
        fwd, bwd = seeded_scan_params(rng, T, N), seeded_scan_params(rng, T, N)
        if make is hydra_mixer:
            mixer = make(HydraParams(fwd, bwd, rng.standard_normal(T)))
        else:
            mixer = make(BiMambaParams(fwd, bwd))
        report = check_structure(mixer, class_tag=MixerClass.quasiseparable(N))
        assert report.ok
        assert report.max_offdiag_block_rank <= N
        assert not check_structure(mixer, class_tag=MixerClass.semiseparable(N)).ok
