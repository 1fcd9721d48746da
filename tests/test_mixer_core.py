"""Tests for mixer containers, application, and structure checking."""

import copy
import dataclasses
import pickle
import re

import numpy as np
import pytest

from mixerlab import (
    DEFAULT_RANK_TOL,
    BlockStackConfig,
    FeatureSequence,
    MatrixMixer,
    MixerClass,
    NumericRangeError,
    QkvTriple,
    RopeConfig,
    ShapeError,
    StructureReport,
    apply_mixer,
    apply_rope,
    check_structure,
    derive_seed,
    init_stack,
    make_rng,
    pairwise_l2_histogram,
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
def svd_calls(monkeypatch):
    """Record the shape of every np.linalg.svd call."""
    calls = []
    original = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


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


def fuzz_scan_params(rng, T, N):
    # decays from anywhere in (0, 1], some down to 1e-300, so blocks range
    # from full order to numerically zero
    a = rng.uniform(rng.uniform(1e-3, 0.99), 1.0, T)
    a[rng.random(T) < 0.05] = 10.0 ** -rng.uniform(3, 300)
    return ScanParams(a=a, b=rng.standard_normal((T, N)), c=rng.standard_normal((T, N)))


def graded(rng, rows, cols, rank):
    """A rows x cols matrix of the given rank with singular values spread
    over up to 14 decades."""
    u, _ = np.linalg.qr(rng.standard_normal((rows, rank)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, rank)))
    return (u * np.logspace(0, -rng.uniform(0, 14), rank)) @ v.T


def fuzz_matrix(rng, T):
    """One random matrix from the families the structure sweep must get right."""
    family = rng.integers(6)
    N = int(rng.integers(1, 7))
    if family == 0:
        return ssm_mixer(fuzz_scan_params(rng, T, N)).m
    if family == 1:
        return bimamba_mixer(BiMambaParams(fuzz_scan_params(rng, T, N), fuzz_scan_params(rng, T, N))).m
    if family == 2:
        fwd, bwd = fuzz_scan_params(rng, T, N), fuzz_scan_params(rng, T, N)
        return hydra_mixer(HydraParams(fwd, bwd, rng.standard_normal(T))).m
    if family == 3:
        q, k = rng.standard_normal((2, T, 8)) * rng.uniform(0.1, 3.0)
        logits = q @ k.T
        w = np.exp(logits - logits.max(axis=1, keepdims=True))
        return w / w.sum(axis=1, keepdims=True)
    if family == 4:
        # banded plus graded low rank below the diagonal, noise above it
        band = np.triu(np.tril(rng.standard_normal((T, T)), int(rng.integers(0, 3))), -int(rng.integers(0, 4)))
        lower = np.tril(graded(rng, T, T, min(T, N)), -1)
        noise = np.triu(rng.standard_normal((T, T)), 1) * 10.0 ** -rng.uniform(4, 17)
        return band + lower + noise
    return graded(rng, T, T, int(rng.integers(1, T + 1)))


def fuzz_cases(seed, count, max_T):
    """Seeded (matrix, tol, tags) cases for the sweep-vs-oracle fuzz; each
    matrix is checked against several tags on one mixer, so cached block
    ranks are reused across classes."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        T = int(rng.integers(1, max_T + 1))
        tol = 10.0 ** -rng.uniform(3, 15)
        orders = {1, int(rng.integers(1, T + 2)), int(rng.integers(1, 8))}
        tags = [MixerClass(kind, n) for n in sorted(orders)
                for kind in ("semiseparable", "quasiseparable")]
        yield fuzz_matrix(rng, T), tol, tags


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


class TestAdoption:
    """An array marked as freshly built (``mixer_core._Fresh``) is frozen in
    place when it owns C-contiguous, writeable float64 data; anything else
    is copied, and every check runs either way."""

    def test_owned_array_is_adopted(self):
        arr = np.ones((3, 2))
        x = FeatureSequence(mixer_core._Fresh(arr))
        assert x.data is arr
        assert not arr.flags.writeable

    def test_public_constructor_copies(self):
        arr = np.ones((3, 2))
        x = FeatureSequence(arr)
        assert not np.shares_memory(x.data, arr)
        assert arr.flags.writeable

    @pytest.mark.parametrize("make", [
        lambda a: a[1:],
        lambda a: a[:, ::2],
        lambda a: np.asfortranarray(a),
        lambda a: np.array(a, dtype=np.float32),
        lambda a: np.array(a, dtype=">f8"),
        lambda a: a.view(np.matrix),
        lambda a: a.tolist(),
    ], ids=["view", "strided", "fortran", "float32", "big-endian", "subclass", "list"])
    def test_anything_else_is_copied(self, make):
        src = make(np.arange(12.0).reshape(4, 3))
        x = FeatureSequence(mixer_core._Fresh(src))
        assert type(x.data) is np.ndarray and not x.data.flags.writeable
        assert np.array_equal(x.data, np.asarray(src, dtype=np.float64))
        if isinstance(src, np.ndarray):
            assert not np.shares_memory(x.data, src)
            assert src.flags.writeable

    def test_read_only_array_is_copied(self):
        arr = np.ones((3, 2))
        arr.flags.writeable = False
        x = FeatureSequence(mixer_core._Fresh(arr))
        assert x.data is not arr and not np.shares_memory(x.data, arr)

    def test_checks_still_run(self):
        bad = np.ones((3, 2))
        bad[2, 0] = np.inf
        with pytest.raises(NumericRangeError):
            FeatureSequence(mixer_core._Fresh(bad))
        with pytest.raises(ShapeError):
            FeatureSequence(mixer_core._Fresh(np.ones(3)))
        with pytest.raises(ShapeError):
            FeatureSequence(mixer_core._Fresh(np.ones((0, 2))))
        with pytest.raises(ShapeError):
            MatrixMixer(mixer_core._Fresh(np.ones((2, 3))), MixerClass.dense())


@pytest.mark.parametrize("build", [
    FeatureSequence,
    lambda z: ScanParams(a=np.full(2, 0.5), b=z, c=np.ones((2, 2))),
    lambda z: apply_rope(z, RopeConfig(d_head=2)),
], ids=["FeatureSequence", "ScanParams", "apply_rope"])
def test_complex_arrays_are_refused(build):
    """A float cast would drop the imaginary part with only a warning, so
    complex input is refused, even with every imaginary part zero."""
    for z in (np.array([[1 + 1j, 2], [3, 4]]), np.ones((2, 2), dtype=complex)):
        with pytest.raises(NumericRangeError, match="must be real"):
            build(z)


@pytest.mark.parametrize("build", [
    FeatureSequence,
    lambda z: apply_rope(z, RopeConfig(d_head=2)),
], ids=["FeatureSequence", "apply_rope"])
@pytest.mark.parametrize("z", [
    np.array([[1 + 1j, 2], [3, 4]], dtype=object),
    np.array([["1", "2"], ["3", "4"]]),
    np.array([[b"1", b"2"], [b"3", b"4"]]),
    [["1.5", "2"], ["3", "4"]],
], ids=["object-complex", "str", "bytes", "str-list"])
def test_non_numbers_are_refused(build, z):
    """A float cast would parse text and fail inside an object array with a
    TypeError, so every entry must already be a real number."""
    with pytest.raises(NumericRangeError, match="must be real"):
        build(z)


def test_object_arrays_of_real_numbers_are_accepted():
    z = np.array([[1, 2.5], [np.float32(3), True]], dtype=object)
    assert FeatureSequence(z).data.tolist() == [[1.0, 2.5], [3.0, 1.0]]


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

    @pytest.mark.parametrize("kind, order, match", [
        ("banded", 2, "unknown mixer class kind 'banded'"),
        ("dense", 3, "dense mixers take no order parameter"),
    ])
    def test_unknown_kind_and_dense_order_refused(self, kind, order, match):
        with pytest.raises(ValueError, match=match):
            MixerClass(kind, order)

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

    def test_str_tag_refused(self):
        """A tag is a MixerClass, never its kind's name, whether it is
        stored on the mixer or passed to check_structure."""
        with pytest.raises(TypeError, match="class_tag must be a MixerClass, got str"):
            MatrixMixer(np.eye(3), "dense")
        mixer = MatrixMixer(np.eye(3), MixerClass.dense())
        with pytest.raises(TypeError, match="class_tag must be a MixerClass, got str"):
            check_structure(mixer, class_tag="dense")

    @pytest.mark.parametrize(
        "clone", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))]
    )
    def test_copies_are_rebuilt_frozen_without_cached_results(self, clone):
        """A copy or an unpickled mixer holds its own read-only matrix and
        none of the original's cached results: no singular values, ranks
        or block ranks, nor any cache added later."""
        mixer = MatrixMixer(np.eye(4), MixerClass.quasiseparable(1))
        report = check_structure(mixer)
        assert check_structure(mixer, class_tag=MixerClass.low_rank(1)).violations
        twin = clone(mixer)
        assert twin.class_tag == mixer.class_tag
        assert np.array_equal(twin.m, mixer.m)
        assert twin.m is not mixer.m
        assert not twin.m.flags.writeable
        with pytest.raises(ValueError):
            twin.m[:] = 0.0
        assert set(vars(twin)) == {"m", "class_tag"}
        assert check_structure(twin) == report


def frozen_containers():
    """One instance of every frozen container whose constructor copies and
    freezes arrays, by class name."""
    rng = np.random.default_rng(17)
    scan = ScanParams(
        a=rng.uniform(0.1, 1.0, 4), b=rng.standard_normal((4, 2)), c=rng.standard_normal((4, 2))
    )
    blocks = {
        kind: init_stack(
            BlockStackConfig(d_model=8, num_blocks=1, mixer_kind=kind,
                             num_heads=2, feature_count=4, state_size=2),
            0,
        )[0]
        for kind in ("hydra", "bimamba", "favor")
    }
    favor = blocks["favor"].mixer_config
    return {
        "FeatureSequence": FeatureSequence(rng.standard_normal((3, 2))),
        "MatrixMixer": MatrixMixer(rng.standard_normal((3, 3)), MixerClass.dense()),
        "ScanParams": scan,
        "SelectiveWeights": blocks["hydra"].mixer_config.fwd,
        "BiMambaParams": BiMambaParams(scan, scan),
        "HydraParams": HydraParams(scan, scan, rng.standard_normal(4)),
        "QkvTriple": QkvTriple(*rng.standard_normal((3, 4, 2))),
        "OrthogonalFeatureMatrix": favor.omegas[0],
        "MhaWeights": favor.weights,
        "Histogram": pairwise_l2_histogram(MatrixMixer(np.eye(4), MixerClass.dense()), bins=3),
        "FfwWeights": blocks["hydra"].ffw_in,
        "DilatedConvWeights": blocks["hydra"].conv,
        "ScanMixerConfig-hydra": blocks["hydra"].mixer_config,
        "ScanMixerConfig-bimamba": blocks["bimamba"].mixer_config,
        "DcHydraBlock": blocks["favor"],
    }


def arrays_of(obj, path="obj"):
    """Every array reachable through dataclass fields and tuples."""
    if isinstance(obj, np.ndarray):
        yield path, obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from arrays_of(getattr(obj, f.name), f"{path}.{f.name}")
    elif isinstance(obj, tuple):
        for i, item in enumerate(obj):
            yield from arrays_of(item, f"{path}[{i}]")


def rebuilt_from_copies(obj, inputs):
    """``obj`` rebuilt through its constructors from writable copies of
    every array it holds; the copies are appended to ``inputs``."""
    if isinstance(obj, np.ndarray):
        inputs.append(np.array(obj))
        return inputs[-1]
    if dataclasses.is_dataclass(obj):
        return type(obj)(**{f.name: rebuilt_from_copies(getattr(obj, f.name), inputs)
                            for f in dataclasses.fields(obj)})
    if isinstance(obj, tuple):
        return tuple(rebuilt_from_copies(item, inputs) for item in obj)
    return obj


@pytest.mark.parametrize("name", sorted(frozen_containers()))
def test_overwriting_constructor_inputs_leaves_containers_unchanged(name):
    """Every container keeps private copies: a caller that writes to the
    arrays it passed in changes nothing the container holds."""
    original = frozen_containers()[name]
    inputs = []
    twin = rebuilt_from_copies(original, inputs)
    assert inputs and all(a.flags.writeable for a in inputs)
    for a in inputs:
        a += 1
    before, after = dict(arrays_of(original)), dict(arrays_of(twin))
    assert before.keys() == after.keys()
    for path, arr in after.items():
        assert np.array_equal(arr, before[path]), path
        assert not any(np.shares_memory(arr, a) for a in inputs), path


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
    ids=["copy", "deepcopy", "pickle"],
)
@pytest.mark.parametrize("name", sorted(frozen_containers()))
def test_copies_of_frozen_containers_stay_read_only(name, clone):
    original = frozen_containers()[name]
    twin = clone(original)
    assert type(twin) is type(original)
    before, after = dict(arrays_of(original)), dict(arrays_of(twin))
    assert before and before.keys() == after.keys()
    for path, arr in after.items():
        assert not arr.flags.writeable, path
        assert arr.dtype == before[path].dtype and np.array_equal(arr, before[path]), path


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


@pytest.mark.parametrize("value, expected", [
    (3, True), (-2, True), (10**400, True), (True, False), (np.True_, False),
    (np.int64(3), False), (3.0, False), ("3", False), (None, False),
])
def test_is_int_takes_python_ints_only(value, expected):
    """The integer rule every int-valued argument shares: a Python int,
    never a bool; numpy integers and floats are refused."""
    assert mixer_core._is_int(value) is expected
    if value is not None and not expected:
        with pytest.raises(ValueError, match=re.escape(f"order, got {value!r}")):
            MixerClass.quasiseparable(value)


@pytest.mark.parametrize("make", [make_rng, derive_seed])
@pytest.mark.parametrize("seed, error", [(-1, ValueError), (1.5, TypeError), (True, TypeError)])
def test_seeds_must_be_non_negative_python_ints(make, seed, error):
    with pytest.raises(error, match="seed must be"):
        make(seed)


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

    def test_seeded_fuzz_matches_oracle(self):
        """Scan, bimamba and hydra mixers with decays down to 1e-300,
        softmax maps, banded plus graded low-rank matrices with noise above
        the diagonal, and graded-spectrum matrices, at T <= 70 and tol from
        1e-3 to 1e-15, each against several tags on one mixer."""
        for m, tol, tags in fuzz_cases(2718, 150, 70):
            mixer = MatrixMixer(m, MixerClass.dense())
            for tag in tags:
                report = check_structure(mixer, tol=tol, class_tag=tag)
                assert report == oracle_structure_report(m, tag, tol), (m.shape, tol, tag)

    @pytest.mark.parametrize("scale", [1e-160, 1e-100, 1e100, 1e150, 1e154])
    def test_extreme_scales_match_oracle(self, scale):
        """Gram products that underflow or overflow send steps to the SVD
        path; the reports stay the exact ones."""
        mixers = seeded_scan_mixers(55, 48, 3)
        for label in ("ssm", "hydra"):
            m = mixers[label].m * scale
            tag = mixers[label].class_tag
            report = check_structure(MatrixMixer(m, tag))
            assert report == oracle_structure_report(m, tag), label
            assert report.ok, label

    @pytest.mark.parametrize("corner, column", [(1e300, 1e160), (1e-160, 1e-165)])
    def test_column_norm_neither_overflows_nor_underflows(self, corner, column):
        """The first lower block is one column whose squares overflow
        (a rank-0 block under a 1e300 reference scale) or underflow (a
        rank-1 block under a 1e-160 one)."""
        T = 6
        m = np.zeros((T, T))
        m[0, 0] = corner
        m[1:, 0] = column
        tag = MixerClass.semiseparable(1)
        report = check_structure(MatrixMixer(m, tag))
        assert report == oracle_structure_report(m, tag)
        assert report.max_offdiag_block_rank == (column > DEFAULT_RANK_TOL * corner)

    def test_benchmark_size_matches_oracle(self):
        """The scan mixers and the hydra mistag at the size the
        structure-audit benchmark checks them."""
        T, N = 320, 16
        mixers = seeded_scan_mixers(320, T, N)
        for label, mixer in mixers.items():
            report = check_structure(mixer)
            assert report == oracle_structure_report(mixer.m, mixer.class_tag), label
            assert report.ok and report.max_offdiag_block_rank == N, label
        hydra = mixers["hydra"]
        mistag = MixerClass.semiseparable(N)
        report = check_structure(hydra, class_tag=mistag)
        assert report == oracle_structure_report(hydra.m, mistag)
        assert not report.ok

    def test_rank_stable_step_keeps_its_bounds(self):
        """A batch of p = 1, 2, 5 or 16 rank-stable steps is accepted whole
        or not at all, and an accepted one keeps what the sweep's counts
        rest on, for every block j < p it covers: column t was within the
        drop floor of the range of c[t+1:]; the singular values of
        [c[j+1:], cols] lie within step_err of those of the certified
        factor c[j+1:] L_j (and of zero past its width), whose values all
        clear threshold + band; and the new factor's values lie within
        step_err of the last block's and clear threshold + band too.
        Entries above each column's first row belong to other blocks and
        must not count.

        Half the cases put one column's residual a little below or above
        the floor, which decides whether the batch is accepted. The other
        half put the smallest value of c[p:] a little below or above the
        threshold plus err, which decides whether the certificate
        passes; there the top rows of c are sometimes large, so that
        c[1:] would pass where c[p:] fails. So both outcomes occur near
        each limit."""
        for p in (1, 2, 5, 16):
            rng = np.random.default_rng(5 + p)
            outcomes = {"residual": [], "certificate": []}
            for case in range(400):
                limit = "residual" if case % 2 else "certificate"
                k = int(rng.integers(1, 8))
                rows = p + k + 1 + int(rng.integers(0, 60))
                threshold = 10.0 ** rng.uniform(-8, 0)
                floor = threshold * 10.0 ** -rng.uniform(0.5, 4)
                err = threshold * rng.uniform(0, 0.5)
                rounding = threshold * 1e-6
                residuals = floor * rng.uniform(0, 1e-5, p)
                if limit == "residual":
                    smallest = 2.0 * (threshold + err + rounding + p * floor)
                    stop = int(rng.integers(p))
                    residuals[stop] = floor * rng.choice([rng.uniform(0.5, 0.95), rng.uniform(1.05, 1.5)])
                else:
                    smallest = (threshold + err + rounding) * (1 + rng.uniform(-1e-3, 1e-3))
                values = smallest * np.logspace(rng.uniform(0, 6), 0, k)
                u, _ = np.linalg.qr(rng.standard_normal((rows - p, k)))
                v, _ = np.linalg.qr(rng.standard_normal((k, k)))
                heavy = rng.uniform(0.5, 2) if rng.random() < 0.5 else 1e-3
                top = rng.standard_normal((p, k)) * values[0] * heavy
                c = np.vstack((top, (u * values) @ v.T))
                cols = rng.standard_normal((rows - 1, p)) * values[0]  # the masked rows keep this
                for t in range(p):
                    below = c[t + 1:]
                    basis, _ = np.linalg.qr(below)
                    off = rng.standard_normal(rows - 1 - t)
                    off -= basis @ (basis.T @ off)
                    off *= residuals[t] / np.linalg.norm(off)
                    cols[t:, t] = below @ (rng.standard_normal(k) * 10.0 ** rng.uniform(-5, -3)) + off
                step = mixer_core._rank_stable_steps(c, cols, threshold, err, rounding, floor)
                outcomes[limit].append(step is not None)
                if limit == "residual":
                    assert outcomes[limit][-1] == (residuals[stop] < floor)
                if step is None:
                    continue
                new_c, step_err = step
                masked = cols.copy()
                masked[np.triu_indices(min(p, rows - 1), 1)] = 0.0
                assert mixer_core._rank_stable_steps(c, masked, threshold, err, rounding, floor) is not None
                ys = [np.linalg.lstsq(c[t + 1:], cols[t:, t], rcond=None)[0] for t in range(p)]
                for t, y in enumerate(ys):
                    assert np.linalg.norm(cols[t:, t] - c[t + 1:] @ y) <= floor * (1 + 1e-6)
                for j in range(p):
                    wide = np.linalg.svd(np.column_stack((c[j + 1:], cols[j:, : j + 1])), compute_uv=False)
                    spread = np.eye(k) + np.dot(np.array(ys[: j + 1]).T, ys[: j + 1])
                    certified = np.linalg.svd(c[j + 1:] @ np.linalg.cholesky(spread), compute_uv=False)
                    assert np.all(np.abs(wide[:k] - certified) <= step_err) and np.all(wide[k:] <= step_err)
                    assert certified[-1] > threshold + err + step_err + rounding
                thin = np.linalg.svd(new_c, compute_uv=False)
                assert new_c.shape == (rows - p, k)
                assert np.all(np.abs(wide[:k] - thin) <= step_err)
                assert thin[-1] > threshold + err + step_err + rounding
            for limit, accepted in outcomes.items():
                assert 50 < sum(accepted) < 150, (p, limit, sum(accepted))

    def test_sweep_charges_every_step(self, monkeypatch):
        """The error bound handed to each batch of rank-stable steps
        includes the step_err of the batch before it, so the residuals
        the sweep drops add up in the band."""
        calls = []
        step = mixer_core._rank_stable_steps

        def recorded(c, cols, threshold, err, rounding, floor):
            out = step(c, cols, threshold, err, rounding, floor)
            calls.append((c.shape[0], err, None if out is None else (out[1], cols.shape[1])))
            return out

        monkeypatch.setattr(mixer_core, "_rank_stable_steps", recorded)
        assert check_structure(seeded_scan_mixers(9, 512, 4)["hydra"]).ok
        chained = [(a, b) for a, b in zip(calls, calls[1:])
                   if a[2] is not None and b[0] == a[0] - a[2][1]]
        assert len(chained) > 50
        assert sum(a[2][1] == mixer_core._SWEEP_BATCH for a, _ in chained) > 50
        for (_, err, (step_err, _)), (_, next_err, _) in chained:
            assert step_err > 0 and next_err >= err + step_err

    def test_fast_decays_take_every_path(self, monkeypatch):
        """Decays in [0.2, 0.6] put most of a block's energy in its top
        rows, so dropping rows from the factor can fail a certificate
        that fewer rows pass. Reports still equal the brute-force sweep,
        and batched acceptances, single-column acceptances and thin-SVD
        steps all occur."""
        folded, thin_svds = [], []
        step, svd = mixer_core._rank_stable_steps, np.linalg.svd

        def recorded(*args):
            out = step(*args)
            folded.append(0 if out is None else args[1].shape[1])
            return out

        def counted(a, *args, **kwargs):
            thin_svds.append(kwargs.get("full_matrices", True) is False)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(mixer_core, "_rank_stable_steps", recorded)
        monkeypatch.setattr(np.linalg, "svd", counted)
        rng = np.random.default_rng(602)
        for _ in range(24):
            T, N = int(rng.integers(20, 121)), int(rng.integers(1, 9))
            tol = 10.0 ** -rng.uniform(3, 10)

            def scan():
                return ScanParams(a=rng.uniform(0.2, 0.6, T), b=rng.standard_normal((T, N)),
                                  c=rng.standard_normal((T, N)))

            for m in (ssm_mixer(scan()).m, bimamba_mixer(BiMambaParams(scan(), scan())).m,
                      hydra_mixer(HydraParams(scan(), scan(), rng.standard_normal(T))).m):
                mixer = MatrixMixer(m, MixerClass.dense())
                for tag in (MixerClass.quasiseparable(N), MixerClass.semiseparable(1)):
                    report = check_structure(mixer, tol=tol, class_tag=tag)
                    assert report == oracle_structure_report(m, tag, tol), (T, N, tol, tag)
        assert sum(q > 1 for q in folded) > 20
        assert sum(q == 1 for q in folded) > 20
        assert sum(thin_svds) > 20

    def test_svds_only_where_block_rank_changes(self, svd_calls):
        """At T=320 a rank-N scan mixer takes a thin SVD only while its
        blocks grow to rank N and shrink again at the far end; the empty
        upper side of a causal scan takes none. A second check at the same
        tol, for any class, reuses the block ranks; another tol sweeps
        again."""
        T, N = 320, 16
        mixers = seeded_scan_mixers(321, T, N)
        for label, sides in (("ssm", 1), ("hydra", 2)):
            mixer = mixers[label]
            del svd_calls[:]
            report = check_structure(mixer)
            assert report.ok
            assert len(svd_calls) <= 2 * N * sides + 1, label
            del svd_calls[:]
            assert check_structure(mixer, class_tag=MixerClass.semiseparable(N)).ok == (sides == 1)
            assert not check_structure(mixer, class_tag=MixerClass.quasiseparable(2)).ok
            assert check_structure(mixer) == report
            assert svd_calls == [], label
            check_structure(mixer, tol=1e-7)
            assert 0 < len(svd_calls) <= 2 * N * sides, label

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
