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
with unit row sums. Multi-head attention is FAVOR+ exactly when it holds
feature matrices.
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
    _is_real,
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

# rows per block when streaming the T x T logits; bounds scratch memory.
# BLAS rounding depends on the row partition, so another size can move
# the last bits of results.
_SOFTMAX_CHUNK = 512

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
    """Rotary position embedding parameters for one head width.

    ``d_head`` must be even: positions rotate consecutive coordinate
    pairs, pair i at position t by angle t * base**(-2 i / d_head).
    """

    d_head: int
    base: float = 10000.0

    def __post_init__(self) -> None:
        _check_int("d_head", self.d_head, 2)
        if self.d_head % 2 != 0:
            raise ValueError(f"rotary embedding needs an even d_head, got {self.d_head}")
        if not (_is_real(self.base) and self.base > 0):
            raise ValueError(f"base must be a positive finite number, got {self.base!r}")


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


def _row_softmax(b: np.ndarray, col: Optional[np.ndarray] = None) -> np.ndarray:
    """Replace each row of ``b`` by its softmax, in place, and return ``b``.

    ``col`` is optional (rows, 1) scratch for the row max and row sum.
    """
    # row-max shift keeps exp in range; exact for any finite logits
    col = np.max(b, axis=1, keepdims=True, out=col)
    np.subtract(b, col, out=b)
    np.exp(b, out=b)
    np.divide(b, np.sum(b, axis=1, keepdims=True, out=col), out=b)
    return b


def softmax_attention(qkv: QkvTriple) -> FeatureSequence:
    """Full softmax attention: ``row_softmax(q @ k.T) @ v``.

    Logits are unscaled inner products (see module docstring). The T x T
    matrix is streamed in row blocks through one reused buffer, so peak
    scratch memory is O(chunk * T). The result agrees with the one-shot
    form to within rounding (BLAS rounding depends on the row partition)
    and is deterministic for equal inputs.
    """
    q, k, v = qkv.q, qkv.k, qkv.v
    T = qkv.T
    kt = np.ascontiguousarray(k.T)
    out = np.empty_like(v)
    rows = min(_SOFTMAX_CHUNK, T)
    buf = np.empty((rows, T))
    col = np.empty((rows, 1))
    # overflowing logits leave NaNs, which FeatureSequence's check raises
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, T, _SOFTMAX_CHUNK):
            hi = min(lo + _SOFTMAX_CHUNK, T)
            n = hi - lo
            np.matmul(q[lo:hi], kt, out=buf[:n])
            _row_softmax(buf[:n], col[:n])
            np.matmul(buf[:n], v, out=out[lo:hi])
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
        return MatrixMixer(_Fresh(_row_softmax(q @ k.T)), MixerClass.dense())


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
    fq = positive_feature_map(qkv.q, omega)
    fk = positive_feature_map(qkv.k, omega)
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


@functools.lru_cache(maxsize=4)
def _rope_tables(T: int, d: int, base: float) -> Tuple[np.ndarray, np.ndarray]:
    # read-only: every caller of apply_rope shares these arrays; at most
    # four entries of 8 * T * d bytes (~33 MB at T=65536, d=64)
    inv_freq = base ** (-2.0 * np.arange(d // 2) / d)
    angles = np.arange(T)[:, None] * inv_freq[None, :]
    cos, sin = np.cos(angles), np.sin(angles)
    cos.flags.writeable = False
    sin.flags.writeable = False
    return cos, sin


def apply_rope(x, config: RopeConfig) -> np.ndarray:
    """Rotate each row of ``x`` by its position's rotary angles.

    Row t has its coordinate pair (x[2i], x[2i+1]) rotated by the angle
    t * base**(-2 i / d_head). Positions are 0-based row indices.
    Rotation preserves row norms, and inner products between rotated
    rows depend on their position difference only.
    """
    x = _as_float_array(x, "x", 2)
    if x.shape[1] != config.d_head:
        raise ShapeError(f"x has width {x.shape[1]}, config expects {config.d_head}")
    T, d = x.shape
    cos, sin = _rope_tables(T, d, float(config.base))
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

    Projects x to Q, K, V, splits heads as contiguous d_head slices,
    optionally applies rotary embeddings to each head's Q and K, runs
    attention per head, writes each head into its slice of one array, and
    applies the output projection. Attention is FAVOR+ exactly when
    ``omegas`` gives feature matrices, one per head, else softmax.
    """
    omegas = _check_attention_args(weights, config, rope, omegas)
    if x.d != config.d_model:
        raise ShapeError(f"sequence width {x.d} != d_model {config.d_model}")

    big_q = x.data @ weights.wq
    big_k = x.data @ weights.wk
    big_v = x.data @ weights.wv
    dh = config.d_head
    heads = np.empty_like(big_v)
    for h in range(config.num_heads):
        sl = slice(h * dh, (h + 1) * dh)
        q, k, v = big_q[:, sl], big_k[:, sl], big_v[:, sl]
        if rope is not None:
            q, k = _Fresh(apply_rope(q, rope)), _Fresh(apply_rope(k, rope))
        qkv = QkvTriple(q, k, v)
        if omegas is None:
            heads[:, sl] = softmax_attention(qkv).data
        else:
            heads[:, sl] = favor_attention(qkv, omegas[h]).data
    return FeatureSequence(_Fresh(heads @ weights.wo))
