"""Selective state-space scans and their materialized mixer forms.

The core recurrence, per channel, with state size N:

    h_t = a_t * h_{t-1} + b_t * x_t        (h_0 = 0, h_t in R^N)
    y_t = c_t . h_t

with a scalar decay a_t in (0, 1], input vector b_t, and readout vector
c_t per step. Unrolling gives the causal matrix form

    m[i, j] = (c_i . b_j) * prod(a[j+1 .. i])     for i >= j, else 0,

an order-N semiseparable matrix: every maximal block below the diagonal
has rank at most N. ``ssm_scan`` runs the O(T N) recurrence and
``ssm_mixer`` materializes m, so the two agree up to roundoff.

The d channels of a sequence share one set of scan parameters, so mixing
them is ``Y = m @ X`` with the same m for every column of X.
``bimamba_channelwise`` and ``hydra_channelwise`` derive the parameters
once and run all channels through one pass, the package's only loop over
channels, which adds each column's forward and backward scans straight
into one (T, d) output; ``bimamba_apply`` and ``hydra_apply`` are its
one-column calls.

Selectivity means a, b, c are functions of the input sequence: a step
size delta_t = softplus(w_delta . x_t + bias) sets a_t =
exp(-delta_t * exp(a_log)) and scales b_t = delta_t * (w_b @ x_t), with
c_t = w_c @ x_t. The decay is input-dependent, which is what lets the
scan gate information flow per position.

Two bidirectional combinations of one pair of forward and backward
scans: ``HydraParams`` is a ``BiMambaParams`` plus a diagonal. That one
pass (``_scan_pair``) runs both, and ``_pair_matrix`` builds the matrix
of either from the two materialized scans, placed as the pass places
the scans:

* ``hydra_*``: the forward matrix shifted one row down (strictly lower
  part), the reversed backward matrix shifted one row up (strictly
  upper part), and a free diagonal delta_i. The diagonal is decoupled:
  perturbing any scan parameter leaves it bit-identical.
* ``bimamba_*``: the unshifted, diagonal-free case, forward plus
  reversed backward. The diagonal couples both directions (each
  contributes its c_i . b_i term).

Both variants are order-N quasiseparable.

Convention: backward-scan parameters live in the reversed time frame.
``bimamba_apply`` and ``hydra_apply`` literally run the backward scan on
the reversed signal and flip the result, and the mixer forms flip both
axes of the backward matrix, which is the same thing.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    _freeze,
    _is_int,
    _is_real,
)

__all__ = [
    "ScanParams",
    "SelectiveWeights",
    "BiMambaParams",
    "HydraParams",
    "ssm_scan",
    "segment_product",
    "ssm_mixer",
    "selective_parameterize",
    "bimamba_apply",
    "bimamba_mixer",
    "bimamba_channelwise",
    "hydra_apply",
    "hydra_mixer",
    "hydra_channelwise",
]


@dataclass(frozen=True)
class ScanParams(_Frozen):
    """Per-step scan parameters: decays ``a`` (T,), inputs ``b`` (T, N)
    and readouts ``c`` (T, N).

    A selective step size is already folded into ``a`` and ``b`` (see
    :func:`selective_parameterize`), so these three are all the
    recurrence and its matrix read. Decays must lie in (0, 1].
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self) -> None:
        a, b, c = _freeze(self, a=1, b=2, c=2)
        T = a.shape[0]
        if b.shape[0] != T or c.shape[0] != T:
            raise ShapeError(
                f"a, b, c must agree on T, got {a.shape}, {b.shape}, {c.shape}"
            )
        if b.shape != c.shape:
            raise ShapeError(f"b and c must share one shape, got {b.shape} and {c.shape}")
        if np.any(a <= 0.0) or np.any(a > 1.0):
            raise NumericRangeError("decays a must lie in (0, 1]")

    @property
    def T(self) -> int:
        return self.a.shape[0]

    @property
    def N(self) -> int:
        return self.b.shape[1]


@dataclass(frozen=True)
class SelectiveWeights(_Frozen):
    """Weights mapping an input sequence to scan parameters.

    ``w_delta`` (d,) and ``bias`` produce the step size, ``w_b`` and
    ``w_c`` (both (N, d)) produce input and readout vectors, and
    ``a_log`` is the log of the base decay rate. ``bias`` and ``a_log``
    must be finite real scalars, Python or numpy; bools are refused.
    """

    w_delta: np.ndarray
    bias: float
    w_b: np.ndarray
    w_c: np.ndarray
    a_log: float

    def __post_init__(self) -> None:
        w_delta, w_b, w_c = _freeze(self, w_delta=1, w_b=2, w_c=2)
        if w_b.shape != w_c.shape:
            raise ShapeError(
                f"w_b and w_c must share one shape, got {w_b.shape} and {w_c.shape}"
            )
        if w_b.shape[1] != w_delta.shape[0]:
            raise ShapeError(
                f"w_b expects width {w_b.shape[1]} but w_delta has {w_delta.shape[0]}"
            )
        for name in ("bias", "a_log"):
            v = getattr(self, name)
            if not _is_real(v):
                raise NumericRangeError(f"{name} must be a finite number, got {v!r}")
        object.__setattr__(self, "bias", float(self.bias))
        object.__setattr__(self, "a_log", float(self.a_log))

    @property
    def d(self) -> int:
        return self.w_delta.shape[0]

    @property
    def N(self) -> int:
        return self.w_b.shape[0]


@dataclass(frozen=True)
class BiMambaParams:
    """Forward and backward scan parameters, backward in reversed time."""

    fwd: ScanParams
    bwd: ScanParams

    def __post_init__(self) -> None:
        fwd, bwd = self.fwd, self.bwd
        if fwd.T != bwd.T or fwd.N != bwd.N:
            raise ShapeError(
                f"forward and backward params must agree on (T, N), got "
                f"({fwd.T}, {fwd.N}) and ({bwd.T}, {bwd.N})"
            )

    @property
    def T(self) -> int:
        return self.fwd.T

    @property
    def N(self) -> int:
        return self.fwd.N


@dataclass(frozen=True)
class HydraParams(BiMambaParams, _Frozen):
    """The scan pair plus a free diagonal ``diag_delta`` (T,)."""

    diag_delta: np.ndarray

    def __post_init__(self) -> None:
        super().__post_init__()
        (diag,) = _freeze(self, diag_delta=1)
        if diag.shape[0] != self.T:
            raise ShapeError(f"diag_delta has length {diag.shape[0]}, expected {self.T}")


def _as_signal(x, T: int) -> np.ndarray:
    x = _as_float_array(x, "x", 1)
    if x.shape[0] != T:
        raise ShapeError(f"x has length {x.shape[0]}, params expect {T}")
    return x


def ssm_scan(params: ScanParams, x) -> np.ndarray:
    """Run the recurrence over a length-T channel signal, O(T N) time.

    ``h_t = a_t h_{t-1} + b_t x_t`` from ``h_0 = 0``, emitting
    ``y_t = c_t . h_t``.
    """
    x = _as_signal(x, params.T)
    a, b, c = params.a, params.b, params.c
    h = np.zeros(params.N)
    y = np.empty(params.T)
    for t in range(params.T):
        h = a[t] * h + b[t] * x[t]
        y[t] = c[t] @ h
    return y


def _scan_pair(pair: BiMambaParams, X: np.ndarray, diag=None) -> np.ndarray:
    """Both scans of each column of X (T, d), added into one (T, d) output:
    the package's one loop over channels. With ``diag`` None (bimamba) the
    forward scan and the flipped backward scan of the reversed column land
    aligned on zeros; otherwise (hydra) they land one step later and one
    step earlier on ``diag * X``, with ``diag`` (T, 1) or (d,).
    :func:`_pair_matrix` is its T x T matrix."""
    s = 0 if diag is None else 1
    y = np.zeros_like(X) if diag is None else diag * X
    T = X.shape[0]
    for ch in range(X.shape[1]):
        y[s:, ch] += ssm_scan(pair.fwd, X[:, ch])[: T - s]
        y[::-1, ch][s:] += ssm_scan(pair.bwd, X[::-1, ch])[: T - s]
    return y


def segment_product(a, i: int, j: int) -> float:
    """Product of decays linking step j to step i, 1.0 when i == j.

    0-based: for i > j the product runs over ``a[j+1 .. i]`` inclusive,
    for i < j over ``a[i .. j-1]`` inclusive. Out-of-range indices raise
    IndexError.
    """
    a = _as_float_array(a, "a", 1)
    T = a.shape[0]
    for name, idx in (("i", i), ("j", j)):
        if not _is_int(idx):
            raise TypeError(f"{name} must be an int, got {type(idx).__name__}")
        if not 0 <= idx < T:
            raise IndexError(f"{name}={idx} out of range for length {T}")
    if i == j:
        return 1.0
    if i > j:
        return float(np.prod(a[j + 1 : i + 1]))
    return float(np.prod(a[i:j]))


def ssm_mixer(params: ScanParams) -> MatrixMixer:
    """Materialize the scan as its causal T x T matrix, tagged
    semiseparable(N).

    ``m[i, j] = (c_i . b_j) * segment_product(a, i, j)`` for i >= j.
    Segment products come from prefix sums of log decays; exponents are
    zeroed above the diagonal before exponentiation so nothing overflows,
    and the diagonal products are exactly 1.
    """
    T = params.T
    pref = np.concatenate(([0.0], np.cumsum(np.log(params.a))))
    expo = pref[1:, None] - pref[None, 1:]
    lower = np.tril(np.ones((T, T), dtype=bool))
    seg = np.where(lower, np.exp(np.where(lower, expo, 0.0)), 0.0)
    m = (params.c @ params.b.T) * seg
    return MatrixMixer(_Fresh(m), MixerClass.semiseparable(params.N))


def _pair_matrix(pair: BiMambaParams, diag=None) -> MatrixMixer:
    """The T x T matrix of :func:`_scan_pair`, tagged quasiseparable(N),
    built from the materialized scans so that it checks the scans rather
    than repeats them. The forward matrix and the both-axes flip of the
    backward one are placed as ``_scan_pair`` places the two scans:
    aligned when ``diag`` is None (bimamba), otherwise one row down and
    one row up with ``diag`` (T,) written on the diagonal (hydra)."""
    T, s = pair.T, 0 if diag is None else 1
    m = np.zeros((T, T))
    m[s:] = ssm_mixer(pair.fwd).m[: T - s]
    m[: T - s] += ssm_mixer(pair.bwd).m[::-1, ::-1][s:]
    if diag is not None:
        np.fill_diagonal(m, diag)
    return MatrixMixer(_Fresh(m), MixerClass.quasiseparable(pair.N))


def selective_parameterize(x: FeatureSequence, weights: SelectiveWeights) -> ScanParams:
    """Derive scan parameters from an input sequence.

    ``delta = softplus(x @ w_delta + bias)``, ``a = exp(-delta *
    exp(a_log))``, ``b = delta * (x @ w_b.T)``, ``c = x @ w_c.T``. One
    shared parameter set serves every channel of x. Steps whose size or
    decay degenerates to zero (extreme inputs) are rejected rather than
    clamped; every overflow raises NumericRangeError, with no numpy warning.
    """
    if x.d != weights.d:
        raise ShapeError(f"sequence width {x.d} != weight width {weights.d}")
    with np.errstate(over="ignore", invalid="ignore"):
        pre = x.data @ weights.w_delta + weights.bias
        delta = np.logaddexp(0.0, pre)
        if not np.all(delta > 0.0):
            raise NumericRangeError("step size underflowed to zero")
        rate = delta * np.exp(weights.a_log)
        if not np.all(np.isfinite(rate)):
            raise NumericRangeError("decay exponent overflowed")
        a = np.exp(-rate)
        if not np.all(a > 0.0):
            raise NumericRangeError("decay underflowed to zero")
        b = delta[:, None] * (x.data @ weights.w_b.T)
        c = x.data @ weights.w_c.T
    if not (np.all(np.isfinite(b)) and np.all(np.isfinite(c))):
        raise NumericRangeError("scan parameters overflowed")
    return ScanParams(a=_Fresh(a), b=_Fresh(b), c=_Fresh(c))


def _selective_pair(x: FeatureSequence, fwd: SelectiveWeights, bwd: SelectiveWeights):
    """The pair of forward parameters from x and backward ones from reversed x."""
    return BiMambaParams(selective_parameterize(x, fwd),
                         selective_parameterize(FeatureSequence(x.data[::-1]), bwd))


def bimamba_apply(params: BiMambaParams, x) -> np.ndarray:
    """Forward scan plus reversed backward scan of the reversed signal."""
    x = _as_signal(x, params.T)
    return _scan_pair(params, x[:, None])[:, 0]


def bimamba_mixer(params: BiMambaParams) -> MatrixMixer:
    """Materialize the addition-based bidirectional mixer.

    Forward causal matrix plus the both-axes flip of the backward one,
    tagged quasiseparable(N). Both summands carry a diagonal, so the
    diagonal couples the two directions.
    """
    return _pair_matrix(params)


def bimamba_channelwise(
    x: FeatureSequence, fwd: SelectiveWeights, bwd: SelectiveWeights
) -> FeatureSequence:
    """Selective bidirectional mixing of every channel of a sequence.

    Forward parameters come from x, backward parameters from reversed x.
    Every channel shares them, so the stage is ``bimamba_mixer(...).m @
    x.data``, run as one call of the shared scan pair on all channels.
    """
    return FeatureSequence(_Fresh(_scan_pair(_selective_pair(x, fwd, bwd), x.data)))


def hydra_apply(params: HydraParams, x) -> np.ndarray:
    """Shift-based bidirectional scan with a decoupled diagonal.

    Output is the forward scan shifted one step later, the reversed
    backward scan shifted one step earlier, and diag_delta * x, summed.
    Boundary positions receive zero from the shifted-out ends.
    """
    x = _as_signal(x, params.T)
    return _scan_pair(params, x[:, None], params.diag_delta[:, None])[:, 0]


def hydra_mixer(params: HydraParams) -> MatrixMixer:
    """Materialize the shift-based mixer, tagged quasiseparable(N).

    Strictly lower part: forward causal matrix shifted one row down.
    Strictly upper part: flipped backward matrix shifted one row up.
    Diagonal: diag_delta, written directly, untouched by either scan.
    """
    return _pair_matrix(params, params.diag_delta)


def hydra_channelwise(
    x: FeatureSequence,
    fwd: SelectiveWeights,
    bwd: SelectiveWeights,
    diag_gain,
) -> FeatureSequence:
    """Selective shift-based mixing of every channel of a sequence.

    ``diag_gain`` holds one diagonal scalar per channel, broadcast over
    time. Parameters are shared across channels as in
    :func:`bimamba_channelwise`, so the stage is ``hydra_mixer(HydraParams
    (fwd, bwd, 0)).m @ x.data + x.data * diag_gain``, run as one call of
    the shared scan pair on all channels.
    """
    gain = _as_float_array(diag_gain, "diag_gain", 1)
    if gain.shape[0] != x.d:
        raise ShapeError(f"diag_gain has length {gain.shape[0]}, expected {x.d}")
    return FeatureSequence(_Fresh(_scan_pair(_selective_pair(x, fwd, bwd), x.data, gain)))
