"""Softmax attention, positive-random-feature linear attention, and RoPE.

Softmax attention computes ``row_softmax(Q @ K.T) @ V``. Note that the
logits are the bare inner products: there is no 1/sqrt(d_head) scaling
anywhere in this package, by design, so Q and K are used exactly as
given. Callers who want scaled logits must fold the scale into Q or K
themselves.

The linear-attention path replaces the exponential kernel with positive
random features: ``phi(x) = r**-0.5 * exp(omega @ x - |x|**2 / 2)`` for
an r x d_head feature matrix ``omega`` with blockwise-orthogonal rows
whose norms follow a chi distribution. Associating ``phi(K).T @ V``
first and normalizing by ``phi(Q) @ (phi(K).T @ 1)`` gives an O(T r d)
approximation to the quadratic form, and ``phi(Q) @ phi(K).T`` (row
normalized) is its rank-<=r materialized mixer.

Both forms produce row-stochastic mixing matrices: non-negative entries
with unit row sums. Both attention paths normalize alike: the weights are
left unnormalized, multiplied into V, and each output row is divided once
by its weight row's sum, so the division runs over (T, d_head) outputs
rather than the T x T map. Only the materialized mixers divide the map
itself. Softmax attention also skips the row-max shift before ``exp``
where the logits are bounded well inside the float64 range. Multi-head
attention is FAVOR+ exactly when it holds feature matrices.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .mixer_core import (
    FeatureSequence,
    MatrixMixer,
    MixerClass,
    NumericRangeError,
    ShapeError,
    _Fresh,
    _Frozen,
    _as_float_array,
    _check_int,
    _freeze,
)
from .rng import make_rng

__all__ = [
    "QkvTriple",
    "OrthogonalFeatureMatrix",
    "RopeConfig",
    "MultiHeadConfig",
    "MhaWeights",
    "softmax_attention",
    "softmax_mixer",
    "draw_orthogonal_features",
    "positive_feature_map",
    "favor_attention",
    "favor_mixer",
    "apply_rope",
    "multi_head_attention",
]

# rows per tile when streaming the T x T logits: a (64, T) tile is 1 MB
# at T=2048, small enough to stay in a 2 MB L2 between its two GEMMs; the
# tile's weights stay unnormalized, and only its (64, d_head) output rows
# are divided by the row sums. A row rounds as under any other partition
# unless a tile's GEMM takes another BLAS kernel path for it (a short tail
# can, and at some T and d_head a tile's edge rows), so another size can
# move last bits.
_SOFTMAX_CHUNK = 64

_ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class QkvTriple(_Frozen):
    """Query, key, and value matrices of identical shape (T, d_head)."""

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        q, k, v = _freeze(self, q=2, k=2, v=2)
        if not (q.shape == k.shape == v.shape):
            raise ShapeError(
                f"q, k, v must share one shape, got {q.shape}, {k.shape}, {v.shape}"
            )

    @property
    def T(self) -> int:
        return self.q.shape[0]

    @property
    def d_head(self) -> int:
        return self.q.shape[1]


@dataclass(frozen=True)
class OrthogonalFeatureMatrix(_Frozen):
    """An (r, d_head) random-feature matrix with blockwise-orthogonal rows.

    Rows are grouped in blocks of d_head consecutive rows (the last block
    may be shorter); within each block the directions are mutually
    orthogonal. Row norms are arbitrary positive values. Construction
    verifies the orthogonality claim, so holding one of these is proof
    the draw was structured correctly. ``seed``, a Python int >= 0,
    records the stream the matrix was drawn from.
    """

    omega: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        (omega,) = _freeze(self, omega=2)
        _check_int("seed", self.seed, 0)
        r, d = omega.shape
        norms = np.linalg.norm(omega, axis=1)
        if np.any(norms == 0.0):
            raise NumericRangeError("feature rows must have positive norm")
        unit = omega / norms[:, None]
        # the full blocks as one (r // d, d, d) stack, then the partial one
        full = r - r % d
        for base, stack in ((0, unit[:full].reshape(-1, d, d)), (full, unit[full:][None])):
            if stack.size == 0:
                continue
            off = stack @ stack.transpose(0, 2, 1) - np.eye(stack.shape[1])
            dev = np.max(np.abs(off), axis=(1, 2))
            bad = np.flatnonzero(dev >= _ORTHO_TOL)
            if bad.size:
                start = base + int(bad[0]) * d
                raise ValueError(
                    f"rows {start}..{start + stack.shape[1] - 1} are not orthogonal "
                    f"(max deviation {dev[bad[0]]:.3e})"
                )

    @property
    def r(self) -> int:
        return self.omega.shape[0]

    @property
    def d_head(self) -> int:
        return self.omega.shape[1]


@dataclass(frozen=True)
class RopeConfig:
    """Rotary position embedding for one head width.

    ``d_head`` must be even: positions rotate consecutive coordinate
    pairs, pair i at position t by angle t * 10000**(-2 i / d_head).
    """

    d_head: int

    def __post_init__(self) -> None:
        _check_int("d_head", self.d_head, 2)
        if self.d_head % 2 != 0:
            raise ValueError(f"rotary embedding needs an even d_head, got {self.d_head}")


@dataclass(frozen=True)
class MultiHeadConfig:
    """Head layout for multi-head attention: d_model split across num_heads."""

    d_model: int
    num_heads: int

    def __post_init__(self) -> None:
        _check_int("d_model", self.d_model)
        _check_int("num_heads", self.num_heads)
        if self.d_model % self.num_heads != 0:
            raise ShapeError(
                f"d_model={self.d_model} is not divisible by num_heads={self.num_heads}"
            )

    @property
    def d_head(self) -> int:
        return self.d_model // self.num_heads


@dataclass(frozen=True)
class MhaWeights(_Frozen):
    """Projection matrices for multi-head attention, all (d_model, d_model)."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray

    def __post_init__(self) -> None:
        mats = _freeze(self, wq=2, wk=2, wv=2, wo=2)
        for name, m in zip(("wq", "wk", "wv", "wo"), mats):
            if m.shape[0] != m.shape[1]:
                raise ShapeError(f"{name} must be square, got shape {m.shape}")
            if m.shape != mats[0].shape:
                raise ShapeError(f"{name} has shape {m.shape}, expected {mats[0].shape}")

    @property
    def d_model(self) -> int:
        return self.wq.shape[0]


def _exp_rows(b: np.ndarray, col: Optional[np.ndarray] = None, shift: bool = True) -> np.ndarray:
    """Replace each row of ``b`` by its exponentials, in place, and return
    their row sums as a (rows, 1) array: ``col`` when given. Dividing a
    row by its sum gives its softmax.

    With ``shift`` each row's max is subtracted first (held in ``col``),
    so every finite row keeps a 1 where its max was and sums to at least
    1. Without it the caller must have shown that no exponential leaves
    the normal float64 range.
    """
    if shift:
        col = np.max(b, axis=1, keepdims=True, out=col)
        np.subtract(b, col, out=b)
    np.exp(b, out=b)
    return np.sum(b, axis=1, keepdims=True, out=col)


# largest bound on the logits' size for which softmax attention skips the
# row-max shift: exp(+-300) (about 1e130 and 1e-130) keeps every weight
# normal and every row sum finite for any T
_UNSHIFTED_BOUND = 300.0


def _unshifted_is_safe(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> bool:
    """Whether softmax attention may skip the row-max shift.

    Every logit is at most ``|q_i| |k_j|`` in size (Cauchy-Schwarz). When
    that bound is at most ``_UNSHIFTED_BOUND`` and T times the largest
    ``|v|`` times exp of it stays below 1e300, no weight, row sum or
    weighted sum of v can overflow, so the check after the loop raises
    exactly where the shifted form would. Softmax is shift-invariant, so
    only rounding changes; an output row whose logits all lie far below
    0 keeps full relative precision down to values of about 4e-178
    rather than about 2e-308. A non-finite bound is not safe.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        bound = np.sqrt(np.max(np.einsum("ij,ij->i", q, q)) * np.max(np.einsum("ij,ij->i", k, k)))
        return bool(bound <= _UNSHIFTED_BOUND
                    and q.shape[0] * max(v.max(), -v.min()) * np.exp(bound) < 1e300)


def softmax_attention(qkv: QkvTriple) -> FeatureSequence:
    """Full softmax attention: ``row_softmax(q @ k.T) @ v``.

    Logits are unscaled inner products (see module docstring). The T x T
    matrix is streamed in tiles of ``_SOFTMAX_CHUNK`` (64) rows through
    one reused buffer, so besides the output and a transposed copy of k
    the scratch memory is O(64 * T). Each tile's exponentials are
    multiplied into v unnormalized, and the tile's output rows are then
    divided by their weight sums, as FAVOR+ and FlashAttention do. The
    row-max shift before ``exp`` is skipped when the logits are bounded
    well inside the float64 range (see :func:`_unshifted_is_safe`). Either
    way the rounding differs from dividing shifted weights first, so the
    result agrees with ``softmax_mixer(q, k).m @ v`` to within rounding,
    and it is deterministic for equal inputs.

    Raises NumericRangeError when the logits overflow, and also when
    a value column's unnormalized weighted sum overflows even though its
    mean would not (``v`` near the float64 limit), as
    :func:`favor_attention` does.
    """
    q, k, v = qkv.q, qkv.k, qkv.v
    T = qkv.T
    kt = np.ascontiguousarray(k.T)
    out = np.empty_like(v)
    rows = min(_SOFTMAX_CHUNK, T)
    buf = np.empty((rows, T))
    col = np.empty((rows, 1))
    shift = not _unshifted_is_safe(q, k, v)
    # an overflow leaves inf or NaN in the output, which FeatureSequence's check raises
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, T, _SOFTMAX_CHUNK):
            hi = min(lo + _SOFTMAX_CHUNK, T)
            n = hi - lo
            np.matmul(q[lo:hi], kt, out=buf[:n])
            sums = _exp_rows(buf[:n], col[:n], shift)
            np.matmul(buf[:n], v, out=out[lo:hi])
            out[lo:hi] /= sums
    return FeatureSequence(_Fresh(out))


def _check_qk(q, k) -> Tuple[np.ndarray, np.ndarray]:
    q = _as_float_array(q, "q", 2)
    k = _as_float_array(k, "k", 2)
    if q.shape != k.shape:
        raise ShapeError(f"q and k must share one shape, got {q.shape} and {k.shape}")
    return q, k


def softmax_mixer(q, k) -> MatrixMixer:
    """Materialize the softmax attention map ``row_softmax(q @ k.T)``.

    Returned with a ``dense`` class tag; the map is row stochastic and
    generically full rank. O(T^2) memory.
    """
    q, k = _check_qk(q, k)
    with np.errstate(over="ignore", invalid="ignore"):  # MatrixMixer checks finiteness
        w = q @ k.T
        w /= _exp_rows(w)
        return MatrixMixer(_Fresh(w), MixerClass.dense())


def draw_orthogonal_features(d_head: int, r: int, seed: int) -> OrthogonalFeatureMatrix:
    """Draw an (r, d_head) positive-feature matrix from a Philox stream.

    Rows come in blocks of d_head: each block is the transpose of the Q
    factor of a fresh d_head x d_head Gaussian (orthonormal directions),
    truncated for the final partial block. Every row is then scaled by
    an independent chi(d_head)-distributed norm, so each row is
    marginally a standard Gaussian direction with the norm distribution
    of a d_head-dimensional Gaussian vector.
    """
    _check_int("d_head", d_head)
    _check_int("r", r)
    rng = make_rng(seed)
    # one draw for every block: the same stream as one (d, d) draw each
    blocks = -(-r // d_head)
    q_f, r_f = np.linalg.qr(rng.standard_normal((blocks, d_head, d_head)))
    # sign-fix the QR so the orthogonal factor is Haar distributed;
    # without it each direction is confined to a half sphere and the
    # kernel estimator is biased
    signs = np.where(np.diagonal(r_f, axis1=1, axis2=2) >= 0.0, 1.0, -1.0)
    basis = (q_f * signs[:, None, :]).transpose(0, 2, 1).reshape(-1, d_head)
    norms = np.sqrt(rng.chisquare(d_head, size=r))
    # column-major, as omega has always been laid out: a product with
    # omega rounds by its layout, so this keeps every feature map bit for bit
    omega = np.multiply(basis[:r], norms[:, None], order="F")
    return OrthogonalFeatureMatrix(omega=omega, seed=seed)


def positive_feature_map(
    x, omega: OrthogonalFeatureMatrix, *, stabilize: bool = True
) -> np.ndarray:
    """Map rows of ``x`` to positive random features, shape (T, r).

    ``phi(x) = r**-0.5 * exp(omega @ x - |x|**2 / 2)``, elementwise
    positive. With ``stabilize=True`` (default) one global scalar, the
    maximum pre-exponential value of the call, is subtracted before
    exponentiation. That rescales the whole feature block by a positive
    constant, which cancels exactly under the row normalization in
    :func:`favor_attention` / :func:`favor_mixer` but would bias raw
    kernel estimates ``phi(q) @ phi(k)``; pass ``stabilize=False`` when
    using the features as an unbiased estimator of exp(q . k).
    """
    return _feature_map(_as_float_array(x, "x", 2), omega, stabilize)


def _feature_map(x: np.ndarray, omega: OrthogonalFeatureMatrix, stabilize: bool,
                 into: Optional[np.ndarray] = None) -> np.ndarray:
    """:func:`positive_feature_map` of a checked float64 ``x``, written into
    ``into`` (a C-contiguous (T, r) float64 array) when given.

    With ``stabilize`` and a finite global maximum every exponent is at
    most 0, so the result is finite and the full finiteness pass is
    skipped. A maximum that is not finite (``x @ omega.T`` or ``|x|**2``
    overflowed) leaves a NaN after the shift, so the pass runs and raises.
    """
    if x.shape[1] != omega.d_head:
        raise ShapeError(
            f"x has width {x.shape[1]} but omega expects d_head={omega.d_head}"
        )
    # one (T, r) buffer from the product to the result; an overflow leaves
    # inf or NaN, which the check below raises, or a -inf exponent: feature 0
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.matmul(x, omega.omega.T, out=into)
        out -= 0.5 * np.sum(x * x, axis=1, keepdims=True)
        checked = False
        if stabilize:
            top = out.max()
            out -= top
            checked = bool(np.isfinite(top))
        np.exp(out, out=out)
    if not checked and not np.all(np.isfinite(out)):
        raise NumericRangeError("feature map overflowed; inputs are too large")
    out /= np.sqrt(omega.r)
    return out


def _favor_normalizer(fq: np.ndarray, fk: np.ndarray) -> np.ndarray:
    """Row sums ``fq @ fk.sum(axis=0)`` of the unnormalized map; a key or
    query whose features all underflowed to 0 raises NumericRangeError
    rather than silently getting or giving no weight."""
    if not np.all(fk.sum(axis=1) > 0.0):
        raise NumericRangeError("a key's features all underflowed to zero; it would get no weight")
    den = fq @ fk.sum(axis=0)
    if not np.all(den > 0.0):
        raise NumericRangeError(
            "linear-attention normalizer collapsed to zero; features underflowed"
        )
    return den


def favor_attention(qkv: QkvTriple, omega: OrthogonalFeatureMatrix) -> FeatureSequence:
    """Linear attention via positive random features, O(T r d) time.

    Computes ``phi(q) @ (phi(k).T @ v)`` row-normalized by
    ``phi(q) @ (phi(k).T @ 1)``. Equals :func:`favor_mixer` applied to v
    up to matmul associativity. For T == 1 the normalization cancels and
    the single v row is returned unchanged.
    """
    fq = _feature_map(qkv.q, omega, True)
    fk = _feature_map(qkv.k, omega, True)
    den = _favor_normalizer(fq, fk)
    out = (fq @ (fk.T @ qkv.v)) / den[:, None]
    return FeatureSequence(_Fresh(out))


def favor_mixer(q, k, omega: OrthogonalFeatureMatrix) -> MatrixMixer:
    """Materialize the random-feature attention map, tagged low_rank(r).

    Rows of ``phi(q) @ phi(k).T`` normalized to unit sum; the rank is at
    most r by construction. O(T^2) memory.
    """
    q, k = _check_qk(q, k)
    return MatrixMixer(_Fresh(_favor_weights(q, k, omega)), MixerClass.low_rank(omega.r))


def _favor_weights(q, k, omega: OrthogonalFeatureMatrix, out=None, features=None) -> np.ndarray:
    """The T x T map of :func:`favor_mixer` for checked float64 ``q`` and
    ``k`` of one shape, not checked finite and not frozen.

    Written into ``out`` when given (a C-contiguous (T, T) float64
    buffer), else into a fresh array. ``features``, when given, is a
    C-contiguous (2, n) float64 scratch array with n >= T * r: phi(q)
    and phi(k) are written into contiguous (T, r) views of its rows.
    """
    T, r = q.shape[0], omega.r
    into = (None, None) if features is None else [row[: T * r].reshape(T, r) for row in features]
    fq = _feature_map(q, omega, True, into[0])
    fk = _feature_map(k, omega, True, into[1])
    den = _favor_normalizer(fq, fk)
    out = np.matmul(fq, fk.T, out=out)
    out /= den[:, None]
    return out


_ROPE_BASE = 10000.0


@functools.lru_cache(maxsize=4)
def _rope_tables(T: int, d: int) -> Tuple[np.ndarray, np.ndarray]:
    # read-only: every caller of apply_rope shares these arrays; at most
    # four entries of 8 * T * d bytes (~33 MB at T=65536, d=64)
    inv_freq = _ROPE_BASE ** (-2.0 * np.arange(d // 2) / d)
    angles = np.arange(T)[:, None] * inv_freq[None, :]
    cos, sin = np.cos(angles), np.sin(angles)
    cos.flags.writeable = False
    sin.flags.writeable = False
    return cos, sin


def apply_rope(x, config: RopeConfig) -> np.ndarray:
    """Rotate each row of ``x`` by its position's rotary angles.

    Row t has its coordinate pair (x[2i], x[2i+1]) rotated by the angle
    t * 10000**(-2 i / d_head). Positions are 0-based row indices.
    Rotation preserves row norms, and inner products between rotated
    rows depend on their position difference only.
    """
    x = _as_float_array(x, "x", 2)
    if x.shape[1] != config.d_head:
        raise ShapeError(f"x has width {x.shape[1]}, config expects {config.d_head}")
    T, d = x.shape
    cos, sin = _rope_tables(T, d)
    even, odd = x[:, 0::2], x[:, 1::2]
    out = np.empty_like(x)
    out[:, 0::2] = cos * even - sin * odd
    out[:, 1::2] = sin * even + cos * odd
    return out


def _check_attention_args(weights, config, rope, omegas):
    """Check that the parts of an attention mixer fit together.

    Returns ``omegas`` as a tuple, or None for softmax attention.
    """
    if weights.d_model != config.d_model:
        raise ShapeError(
            f"weights are for d_model={weights.d_model}, config says {config.d_model}"
        )
    if rope is not None and rope.d_head != config.d_head:
        raise ShapeError(
            f"rope is for d_head={rope.d_head}, config has d_head={config.d_head}"
        )
    if omegas is None:
        return None
    omegas = tuple(omegas)
    if len(omegas) != config.num_heads:
        raise ValueError(
            f"favor attention needs one feature matrix per head "
            f"({config.num_heads}), got {len(omegas)}"
        )
    for i, om in enumerate(omegas):
        if om.d_head != config.d_head:
            raise ShapeError(
                f"omegas[{i}] is for d_head={om.d_head}, expected {config.d_head}"
            )
    return omegas


def multi_head_attention(
    x: FeatureSequence,
    weights: MhaWeights,
    config: MultiHeadConfig,
    *,
    rope: Optional[RopeConfig] = None,
    omegas: Optional[Sequence[OrthogonalFeatureMatrix]] = None,
) -> FeatureSequence:
    """Multi-head attention over a feature sequence.

    Heads are contiguous d_head slices of the projections. Each head
    projects x to its own (T, d_head) Q, K and V through its columns of
    the projection matrices, optionally applies rotary embeddings to Q
    and K, runs attention and writes its output into one (T, d_model)
    heads array; its arrays are freed before the next head starts, so
    no (T, d_model) Q, K or V is ever held. The output projection of the
    heads array ends the stage. Attention is FAVOR+ exactly when
    ``omegas`` gives feature matrices, one per head, else softmax.
    """
    omegas = _check_attention_args(weights, config, rope, omegas)
    if x.d != config.d_model:
        raise ShapeError(f"sequence width {x.d} != d_model {config.d_model}")

    dh = config.d_head
    heads = np.empty((x.T, config.d_model))
    for h in range(config.num_heads):
        sl = slice(h * dh, (h + 1) * dh)
        heads[:, sl] = _one_head(x.data, weights, sl, rope,
                                 None if omegas is None else omegas[h])
    return FeatureSequence(_Fresh(heads @ weights.wo))


def _one_head(x: np.ndarray, weights: MhaWeights, sl: slice, rope: Optional[RopeConfig],
              omega: Optional[OrthogonalFeatureMatrix]) -> np.ndarray:
    """One head of :func:`multi_head_attention`: the (T, d_head) output of
    the projection columns ``sl``. Its Q, K and V die with the call."""
    q, k, v = (x @ w[:, sl] for w in (weights.wq, weights.wk, weights.wv))
    if rope is not None:
        q, k = apply_rope(q, rope), apply_rope(k, rope)
    qkv = QkvTriple(_Fresh(q), _Fresh(k), _Fresh(v))
    out = softmax_attention(qkv) if omega is None else favor_attention(qkv, omega)
    return out.data
