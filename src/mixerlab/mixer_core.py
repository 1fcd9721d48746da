"""Matrix-mixer sequence transforms and structural-class verification.

A sequence transform here is a linear map of a length-T feature sequence
by a T x T mixing matrix: ``y = m @ x``. Attention maps, linear
attention, and state-space scans all materialize to such matrices, and
what separates them is the structure of ``m``. The classes recognized
here:

* ``dense``: no constraint.
* ``low_rank(r)``: the whole matrix has numerical rank at most r.
* ``semiseparable(N)``: every maximal block strictly below the diagonal
  (``m[i:, :i]``) has numerical rank at most N, and the strict upper
  triangle is numerically zero. Causal scans produce these.
* ``quasiseparable(N)``: every maximal block strictly below and strictly
  above the diagonal has numerical rank at most N; the diagonal itself
  is unconstrained. This admits bidirectional scans with a free diagonal.

The class recorded on a :class:`MatrixMixer` is a claim, not a checked
invariant. Construction validates shapes and finiteness only, so that a
wrongly tagged mixer can be built and then reported as a violation by
:func:`check_structure`.

Numerical rank of a block is the count of its singular values exceeding
``tol`` times the largest singular value of the full matrix. Using a
single global reference scale makes the checks mean one thing across all
blocks: entries negligible at the scale of the mixer itself count as
zero, and the semiseparable zero-upper-triangle requirement is exactly a
rank-0 condition on the mirrored upper blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "DEFAULT_RANK_TOL",
    "ShapeError",
    "NumericRangeError",
    "FeatureSequence",
    "MixerClass",
    "MatrixMixer",
    "StructureReport",
    "apply_mixer",
    "check_structure",
]

DEFAULT_RANK_TOL = 1e-6


class ShapeError(ValueError):
    """An array argument has the wrong dimensionality or incompatible shape."""


class NumericRangeError(ValueError):
    """A numeric value is non-finite or outside its permitted range."""


def _as_float_array(arr, name: str, ndim: int) -> np.ndarray:
    out = np.array(arr, dtype=np.float64)
    if out.ndim != ndim:
        raise ShapeError(f"{name} must be {ndim}-dimensional, got shape {out.shape}")
    if out.size == 0:
        raise ShapeError(f"{name} must be non-empty, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise NumericRangeError(f"{name} contains non-finite entries")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class FeatureSequence:
    """A length-T sequence of d-dimensional real feature frames.

    ``data`` has shape (T, d); it is copied on construction, checked
    finite, and frozen. Every mixer in this package maps one of these to
    another of the same shape.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "data", _as_float_array(self.data, "data", 2))

    @property
    def T(self) -> int:
        """Number of frames."""
        return self.data.shape[0]

    @property
    def d(self) -> int:
        """Feature width."""
        return self.data.shape[1]


@dataclass(frozen=True)
class MixerClass:
    """Structural class tag: a kind plus its order parameter.

    ``order`` is the rank bound r for ``low_rank``, the state size N for
    ``semiseparable`` / ``quasiseparable``, and None for ``dense``.
    """

    kind: str
    order: Optional[int] = None

    _KINDS = ("dense", "low_rank", "semiseparable", "quasiseparable")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(
                f"unknown mixer class kind {self.kind!r}; expected one of {self._KINDS}"
            )
        if self.kind == "dense":
            if self.order is not None:
                raise ValueError("dense mixers take no order parameter")
        else:
            if not isinstance(self.order, int) or isinstance(self.order, bool) or self.order < 1:
                raise ValueError(f"{self.kind} requires a positive integer order, got {self.order!r}")

    @classmethod
    def dense(cls) -> "MixerClass":
        return cls("dense")

    @classmethod
    def low_rank(cls, r: int) -> "MixerClass":
        return cls("low_rank", r)

    @classmethod
    def semiseparable(cls, n: int) -> "MixerClass":
        return cls("semiseparable", n)

    @classmethod
    def quasiseparable(cls, n: int) -> "MixerClass":
        return cls("quasiseparable", n)

    def describe(self) -> str:
        return self.kind if self.order is None else f"{self.kind}({self.order})"


@dataclass(frozen=True)
class MatrixMixer:
    """A square mixing matrix together with its claimed structural class."""

    m: np.ndarray
    class_tag: MixerClass

    def __post_init__(self) -> None:
        m = _as_float_array(self.m, "m", 2)
        if m.shape[0] != m.shape[1]:
            raise ShapeError(f"mixing matrix must be square, got shape {m.shape}")
        object.__setattr__(self, "m", m)
        if not isinstance(self.class_tag, MixerClass):
            raise TypeError(f"class_tag must be a MixerClass, got {type(self.class_tag).__name__}")

    @property
    def T(self) -> int:
        return self.m.shape[0]


@dataclass(frozen=True)
class StructureReport:
    """Outcome of verifying a mixer against a structural class.

    ``violations`` lists offending blocks as ((row_lo, row_hi, col_lo,
    col_hi), rank) with half-open index ranges; empty means the claim
    holds. ``max_offdiag_block_rank`` is the largest rank observed over
    all checked blocks (for dense and low_rank checks, the one block is
    the whole matrix).
    """

    checked_class: MixerClass
    max_offdiag_block_rank: int
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def apply_mixer(mixer: MatrixMixer, x: FeatureSequence) -> FeatureSequence:
    """Mix the frames of ``x`` by the rows of ``mixer``: ``y = m @ x``."""
    if mixer.T != x.T:
        raise ShapeError(
            f"mixer is {mixer.T}x{mixer.T} but sequence has {x.T} frames"
        )
    return FeatureSequence(mixer.m @ x.data)


def _check_tol(tol) -> None:
    """Reject a rank tolerance that is not a positive finite real number.

    ``bool`` is an ``int`` subclass, so it is refused explicitly.
    """
    if isinstance(tol, bool) or not (
        isinstance(tol, (int, float)) and np.isfinite(tol) and tol > 0
    ):
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")


def _rank_against(singular_values: np.ndarray, tol: float, sigma_ref: float) -> int:
    if sigma_ref == 0.0:
        return 0
    return int(np.count_nonzero(singular_values > tol * sigma_ref))


def _block_rank(block: np.ndarray, tol: float, sigma_ref: float) -> int:
    """Exact numerical rank of one block: a full values-only SVD."""
    return _rank_against(np.linalg.svd(block, compute_uv=False), tol, sigma_ref)


# The compressed sweep drops singular values below this fraction of the
# rank threshold tol * sigma_ref; every dropped value is charged to the
# sweep's error bound, so this only sets how tight the bound stays.
_SWEEP_DROP_FRACTION = 1e-6
# Rounding allowance of one LAPACK SVD, in units of eps * T * sigma_ref.
# Charged once per sweep step and once more for the exact SVD the
# result must agree with.
_SWEEP_ROUNDING = 16.0
# Cost of an SVD that also returns the left factor, relative to a
# values-only SVD of the same shape. Measured at 2-3x for tall thin
# matrices; rounding up switches to exact SVDs a little early.
_THIN_SVD_COST = 4


def _svd_cost(rows: int, cols: int) -> int:
    """Leading-order flop count of an SVD, up to a constant factor."""
    return max(rows, cols) * min(rows, cols) ** 2


def _split_ranks(a: np.ndarray, block, tol: float, sigma_ref: float, order: int) -> list:
    """Ranks of the lower blocks ``a[i:, :i]`` for i = 1..T-1.

    Each entry equals ``_block_rank(block(i), tol, sigma_ref)``; ``block(i)``
    is the same block in the orientation the caller's exact check uses.

    Going from split i-1 to i the block loses its top row and gains the
    column ``a[i:, i-1]``. The sweep keeps a column factor ``c`` with
    ``a[i-1:, :i-1] = c @ q.T + E`` for some orthonormal ``q`` that is
    never formed, and ``||E||_2 <= err``. The next block is then
    ``[c[1:], a[i:, i-1]]`` times a matrix with orthonormal rows, plus
    the top-row-deleted ``E``, so by Weyl's inequality its singular
    values are those of the thin matrix ``w = [c[1:], a[i:, i-1]]`` to
    within err. A count is taken from ``w`` only when no singular value
    of ``w``, nor the implicit zeros past its width, lies within
    ``err`` plus the rounding allowance of the threshold; otherwise that
    one block gets the exact SVD. Values of ``w`` below a floor far
    under the threshold are dropped from ``c``, and their sum is added
    to err. Once the band reaches the threshold, the rest of the sweep
    uses exact SVDs.

    Rank-k blocks cost O(T k^2) per step. When the kept rank shows that
    the thin SVD costs more than the exact one would, the rest of the
    sweep uses exact SVDs. Early on every block is as wide as its rank,
    so that is judged only past column min(2(order + 1), T/4): past
    2(order + 1) a block that honours the claimed order fits in half
    its width, and T/4 caps the thin SVDs spent on a matrix that does
    not.
    """
    T = a.shape[0]
    if sigma_ref == 0.0:
        return [0] * (T - 1)
    threshold = tol * sigma_ref
    rounding = _SWEEP_ROUNDING * np.finfo(np.float64).eps * T * sigma_ref
    floor = max(_SWEEP_DROP_FRACTION * threshold, rounding)
    judge_from = min(2 * (order + 1), T // 4)
    ranks = []
    c = np.zeros((T, 0))
    err = 0.0
    for i in range(1, T):
        rows = T - i
        band = err + 2.0 * rounding
        thin_cost = _THIN_SVD_COST * _svd_cost(rows, c.shape[1] + 1)
        # a band reaching the threshold can certify no later count either
        if band >= threshold or (i > judge_from and thin_cost > _svd_cost(rows, i)):
            ranks.extend(_block_rank(block(j), tol, sigma_ref) for j in range(i, T))
            break
        w = np.hstack((c[1:], a[i:, i - 1 : i]))
        u, s, _ = np.linalg.svd(w, full_matrices=False)
        if np.any(np.abs(s - threshold) <= band):
            ranks.append(_block_rank(block(i), tol, sigma_ref))
        else:
            ranks.append(_rank_against(s, tol, sigma_ref))
        keep = s > floor
        err += float(s[~keep].sum()) + rounding
        c = u[:, keep] * s[keep]
    return ranks


def check_structure(
    mixer: MatrixMixer,
    tol: float = DEFAULT_RANK_TOL,
    class_tag: Optional[MixerClass] = None,
) -> StructureReport:
    """Verify a mixer's claimed (or an explicitly given) structural class.

    For semiseparable and quasiseparable claims every maximal
    off-diagonal block is tested: lower blocks ``m[i:, :i]`` and upper
    blocks ``m[:i, i:]`` for each split point i in 1..T-1. Semiseparable
    requires lower ranks <= N and upper ranks == 0; quasiseparable
    requires both sides <= N. ``low_rank(r)`` tests the whole matrix
    against min(T, r); ``dense`` always passes but still reports the
    matrix rank. All ranks are measured against the full matrix's
    largest singular value (see module docstring).

    The split sweep is compressed: one pass per side carries a thin
    factor of the current block, so each step is an SVD of a
    (T - i) x (k + 1) matrix, k being the block's kept rank, and a
    rank-k mixer costs O(T^2 k^2) instead of the O(T^4) of 2(T - 1)
    full block SVDs. Each count is certified: dropped singular values
    and an eps-scale rounding allowance bound how far the thin matrix's
    singular values can sit from the block's, and a block with a value
    inside that band of ``tol`` times the reference scale is recounted
    with an exact SVD. A side whose kept rank grows so large that the
    thin SVDs cost more than exact ones finishes with exact SVDs. The
    report is the one exact block SVDs give.
    """
    _check_tol(tol)
    tag = mixer.class_tag if class_tag is None else class_tag
    if not isinstance(tag, MixerClass):
        raise TypeError(f"class_tag must be a MixerClass, got {type(tag).__name__}")

    m = mixer.m
    T = mixer.T
    singular_values = np.linalg.svd(m, compute_uv=False)
    sigma_ref = float(singular_values[0])

    if tag.kind in ("dense", "low_rank"):
        rank = _rank_against(singular_values, tol, sigma_ref)
        violations = []
        if tag.kind == "low_rank" and rank > min(T, tag.order):
            violations.append(((0, T, 0, T), rank))
        return StructureReport(tag, rank, tuple(violations))

    n = tag.order
    upper_limit = 0 if tag.kind == "semiseparable" else n
    lower = _split_ranks(m, lambda i: m[i:, :i], tol, sigma_ref, n)
    upper = _split_ranks(m.T, lambda i: m[:i, i:], tol, sigma_ref, n)
    violations = []
    for i, (lower_rank, upper_rank) in enumerate(zip(lower, upper), start=1):
        if lower_rank > n:
            violations.append(((i, T, 0, i), lower_rank))
        if upper_rank > upper_limit:
            violations.append(((0, i, i, T), upper_rank))
    return StructureReport(tag, max(lower + upper, default=0), tuple(violations))
