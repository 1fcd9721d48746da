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

import math
import numbers
from dataclasses import dataclass, fields
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


def _reduce_through_init(self):
    """``__reduce__`` shared by the frozen containers that hold arrays.

    Their constructors copy and freeze every array, but the default
    dataclass copy and pickle paths skip the constructor and give
    writeable arrays. Rebuilding through the constructor makes the arrays
    read-only private copies again, and nothing cached on the original
    carries over.
    """
    return (type(self), tuple(getattr(self, f.name) for f in fields(self)))


@dataclass(frozen=True)
class FeatureSequence:
    """A length-T sequence of d-dimensional real feature frames.

    ``data`` has shape (T, d); it is copied on construction, checked
    finite, and frozen. Every mixer in this package maps one of these to
    another of the same shape.
    """

    data: np.ndarray

    __reduce__ = _reduce_through_init

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

    __reduce__ = _reduce_through_init

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


def _is_real(v) -> bool:
    """True for a finite real scalar: a Python or numpy int or float.

    ``bool`` is an ``int`` subclass, so it is refused explicitly, and an
    int too large for a float counts as not finite.
    """
    if not isinstance(v, numbers.Real) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _check_tol(tol) -> None:
    """Reject a rank tolerance that is not a positive finite real number."""
    if not (_is_real(tol) and tol > 0):
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")


def _rank_against(singular_values: np.ndarray, tol: float, sigma_ref: float) -> int:
    if sigma_ref == 0.0:
        return 0
    return int(np.count_nonzero(singular_values > tol * sigma_ref))


def _singular_values(mixer: MatrixMixer) -> np.ndarray:
    """Singular values of the whole matrix, descending; one SVD per mixer.

    ``mixer.m`` is a private read-only copy, so the values computed on
    first use stay valid and are kept on the instance for later calls.
    SVD non-convergence propagates as numpy's LinAlgError.
    """
    values = mixer.__dict__.get("_singular_values")
    if values is None:
        values = np.linalg.svd(mixer.m, compute_uv=False)
        values.flags.writeable = False
        object.__setattr__(mixer, "_singular_values", values)
    return values


def _split_ranks_cached(mixer: MatrixMixer, tol: float, order: int) -> tuple:
    """Lower and upper block ranks of ``mixer`` at ``tol``, one sweep each.

    The ranks depend only on the matrix and ``tol``, not on the class
    being checked (``order`` only steers the sweep's cost), so they are
    kept on the instance next to the singular values, keyed by ``tol``.
    """
    cache = mixer.__dict__.get("_split_ranks")
    if cache is None:
        cache = {}
        object.__setattr__(mixer, "_split_ranks", cache)
    ranks = cache.get(tol)
    if ranks is None:
        m = mixer.m
        sigma_ref = float(_singular_values(mixer)[0])
        # a near-singular factor can overflow a rank-stable step's solve;
        # that step's tests then fail and it takes the SVD step
        with np.errstate(over="ignore", invalid="ignore"):
            lower = _split_ranks(m, lambda i: m[i:, :i], tol, sigma_ref, order)
            upper = _split_ranks(m.T, lambda i: m[:i, i:], tol, sigma_ref, order)
        ranks = cache[tol] = (tuple(lower), tuple(upper))
    return ranks


def _block_rank(block: np.ndarray, tol: float, sigma_ref: float) -> int:
    """Exact numerical rank of one block: a full values-only SVD."""
    return _rank_against(np.linalg.svd(block, compute_uv=False), tol, sigma_ref)


# The compressed sweep drops singular values below this fraction of the
# rank threshold tol * sigma_ref; every dropped value is charged to the
# sweep's error bound, so this only sets how tight the bound stays.
_SWEEP_DROP_FRACTION = 1e-6
# Rounding allowance of one LAPACK SVD, in units of eps * T * sigma_ref.
# Charged once per thin-SVD step and once more for the exact SVD the
# result must agree with; the other steps charge their own bounds.
_SWEEP_ROUNDING = 16.0
# Cost of an SVD that also returns the left factor, relative to a
# values-only SVD of the same shape. Measured at 2-3x for tall thin
# matrices; rounding up switches to exact SVDs a little early.
_THIN_SVD_COST = 4
_EPS = float(np.finfo(np.float64).eps)
# Underflow allowance per term of a norm taken from a sum of squares: a
# square can lose up to the subnormal spacing, far below this value's
# square, and the square root turns that into an absolute error of this
# order.
_SWEEP_TINY_ROOT = math.sqrt(float(np.finfo(np.float64).tiny))


def _gamma(n: int) -> float:
    """Higham's rounding constant n u / (1 - n u), with u = eps / 2."""
    nu = n * _EPS / 2
    return nu / (1.0 - nu)


def _norm(v: np.ndarray) -> float:
    """2-norm of a nonempty vector, scaled by its largest entry so that no
    square overflows and none that matters underflows; within
    gamma(len(v) + 4) of the exact norm."""
    peak = float(np.abs(v).max())
    return peak * math.sqrt(float((v / peak) @ (v / peak))) if peak > 0.0 else 0.0


def _svd_cost(rows: int, cols: int) -> int:
    """Leading-order flop count of an SVD, up to a constant factor."""
    return max(rows, cols) * min(rows, cols) ** 2


def _rank_stable_step(c: np.ndarray, col: np.ndarray, threshold: float, err: float,
                      rounding: float, floor: float):
    """Fold ``col`` into the thin factor ``c`` without an SVD, when the
    block keeps the factor's rank k and all k values clear the threshold.

    Returns ``(new_c, step_err)``, or None when a test fails and the
    caller must take an SVD step. For any ``y``, ``col = c y + r``
    exactly, and ``[c, c y] = c S Q`` with ``S = I + alpha y y^T``, the
    symmetric square root of ``I + y y^T``, and ``Q = S^-1 [I, y]``
    with orthonormal rows. So ``[c, col]`` is ``new_c Q`` up to ``r``
    and the rounding of ``new_c = c S``; ``step_err`` bounds both with
    Higham's gamma bounds for inner products (Higham 2002, §3.1), using
    ``|| |c| |y| || <= ||c||_F ||y||`` and ``alpha ||y|| < 1``. ``y``
    solves the normal equations, refined once if the residual is not yet
    within the drop floor; its accuracy only decides whether it passes.

    The singular values of ``c S`` are at least those of ``c``, since
    ``S`` has none below 1, and ``new_c`` differs from ``c S`` by
    rounding only. A Cholesky factorization of ``c^T c`` minus a shift
    certifies ``c``'s smallest value: the square of threshold plus band
    plus that rounding, plus the Gram product's rounding and the
    Cholesky backward error (Demmel 1989; Rump 2006, BIT 46). Its
    success proves every value of ``new_c`` clears threshold + band.
    """
    rows, k = c.shape
    gram = c.T @ c
    try:
        y = np.linalg.solve(gram, c.T @ col)
        r = col - c @ y
        norm_r = math.sqrt(float(r @ r))
        # comparisons are written so that a NaN fails them
        if not norm_r <= floor:
            y += np.linalg.solve(gram, c.T @ r)
            r = col - c @ y
            norm_r = math.sqrt(float(r @ r))
    except np.linalg.LinAlgError:
        return None
    if not norm_r <= floor:
        return None
    g = _gamma(rows + 2 * k + 8)
    tiny = (rows + k + 8) * _SWEEP_TINY_ROOT
    trace = float(gram.trace())
    frobenius = math.sqrt(trace)
    yy = float(y @ y)
    products = 2.0 * g * (math.sqrt(float(col @ col)) + frobenius * (2.0 + 3.0 * math.sqrt(yy))) + tiny
    step_err = (1.0 + g) * norm_r + products
    band = err + step_err + rounding
    # Gram entries and Cholesky intermediates stay below the trace, so a
    # finite 4 * trace rules out overflow in the certificate
    if not (band < threshold and math.isfinite(4.0 * trace)):
        return None
    clearance = (threshold + band + products) * (1.0 + 8.0 * _EPS)
    gram.flat[:: k + 1] -= clearance * clearance + 2.0 * g * trace + tiny * tiny
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return None
    root = np.outer(y / (1.0 + math.sqrt(1.0 + yy)), y)
    root.flat[:: k + 1] += 1.0
    return c @ root, step_err


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
    within err.

    Each step first tries a rank-stable step (:func:`_rank_stable_step`),
    which needs no SVD: when the new column lies in the range of
    ``c[1:]`` to within the drop floor and every value of the updated
    factor provably clears the threshold plus the band, the count is
    the factor's width. An empty factor needs only the column's norm.
    Otherwise the step takes the thin SVD of ``w``. A count is taken from
    it only when no singular value of ``w``, nor the implicit zeros past
    its width, lies within ``err`` plus the rounding allowance of the
    threshold; otherwise that one block gets the exact SVD. Values of
    ``w`` below a floor far under the threshold are dropped from ``c``,
    and their sum is added to err. Once the band reaches the threshold,
    the rest of the sweep uses exact SVDs.

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
    rounding = _SWEEP_ROUNDING * _EPS * T * sigma_ref
    floor = max(_SWEEP_DROP_FRACTION * threshold, rounding)
    judge_from = min(2 * (order + 1), T // 4)
    ranks = []
    c = np.zeros((T, 0))
    err = 0.0
    for i in range(1, T):
        rows = T - i
        band = err + 2.0 * rounding
        k = c.shape[1]
        thin_cost = _THIN_SVD_COST * _svd_cost(rows, k + 1)
        # a band reaching the threshold can certify no later count either
        if band >= threshold or (i > judge_from and thin_cost > _svd_cost(rows, i)):
            ranks.extend(_block_rank(block(j), tol, sigma_ref) for j in range(i, T))
            break
        col = a[i:, i - 1]
        if k == 0:
            # the column itself is the kept factor, so only the norm rounds
            s = np.array([_norm(col)])
            factor = col[:, None]
            charge = float(s[0]) * _gamma(rows + 4)
        else:
            step = _rank_stable_step(c[1:], col, threshold, err, rounding, floor)
            if step is not None:
                c, step_err = step
                err += step_err
                ranks.append(k)
                continue
            u, s, _ = np.linalg.svd(np.column_stack((c[1:], col)), full_matrices=False)
            factor = u * s
            charge = rounding
        if np.any(np.abs(s - threshold) <= band):
            ranks.append(_block_rank(block(i), tol, sigma_ref))
        else:
            ranks.append(_rank_against(s, tol, sigma_ref))
        keep = s > floor
        err += float(s[~keep].sum()) + charge
        c = factor[:, keep]
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
    largest singular value (see module docstring). That reference comes
    from one values-only SVD of the whole matrix, an O(T^3) step that
    is kept on the mixer and shared with
    :func:`~mixerlab.diagnostics.numerical_rank`.

    The split sweep is compressed: one pass per side carries a thin
    factor of the current block, so a step costs at most an SVD of a
    (T - i) x (k + 1) matrix, k being the block's kept rank, and a
    rank-k mixer costs O(T^2 k^2) instead of the O(T^4) of 2(T - 1)
    full block SVDs. Most steps need no SVD at all: when the new column
    lies in the factor's range to within a floor far below the
    threshold, it is folded into the factor by a rank-one update, and a
    shifted Cholesky factorization of the factor's Gram matrix proves
    that all k values clear the threshold, so the rank stays k. An
    empty factor needs only the column's norm. Thin SVDs remain where a
    block's rank changes or a value comes near the threshold. Each
    count is certified: residuals and dropped singular values, with
    eps-scale rounding allowances, bound how far the factor's singular
    values can sit from the block's, and a block with a value inside
    that band of ``tol`` times the reference scale is recounted with an
    exact SVD. A side whose kept rank grows so large that the thin SVDs
    cost more than exact ones finishes with exact SVDs. The report is
    the one exact block SVDs give.

    Block ranks depend only on the matrix and ``tol``, so both sides'
    ranks are kept on the mixer per ``tol``: a second check at the same
    tolerance, against any class, runs no sweep.
    """
    _check_tol(tol)
    tag = mixer.class_tag if class_tag is None else class_tag
    if not isinstance(tag, MixerClass):
        raise TypeError(f"class_tag must be a MixerClass, got {type(tag).__name__}")

    T = mixer.T
    if tag.kind in ("dense", "low_rank"):
        singular_values = _singular_values(mixer)
        rank = _rank_against(singular_values, tol, float(singular_values[0]))
        violations = []
        if tag.kind == "low_rank" and rank > min(T, tag.order):
            violations.append(((0, T, 0, T), rank))
        return StructureReport(tag, rank, tuple(violations))

    n = tag.order
    upper_limit = 0 if tag.kind == "semiseparable" else n
    lower, upper = _split_ranks_cached(mixer, tol, n)
    violations = []
    for i, (lower_rank, upper_rank) in enumerate(zip(lower, upper), start=1):
        if lower_rank > n:
            violations.append(((i, T, 0, i), lower_rank))
        if upper_rank > upper_limit:
            violations.append(((0, i, i, T), upper_rank))
    return StructureReport(tag, max(lower + upper, default=0), tuple(violations))
