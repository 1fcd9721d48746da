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


def _real_array(arr, name: str) -> np.ndarray:
    """``arr`` as an array of real numbers (bools count, as in numpy).

    Complex, string, bytes and other entries raise NumericRangeError,
    where a float cast would drop the imaginary part with a warning,
    parse the text, or fail with a TypeError inside an object array."""
    a = np.asarray(arr)
    if a.dtype.kind not in "biuf" and not (
        a.dtype.kind == "O" and all(isinstance(v, numbers.Real) for v in a.flat)
    ):
        raise NumericRangeError(f"{name} must be real, got dtype {a.dtype}")
    return a


def _as_float_array(arr, name: str, ndim: int, adopt: bool = False) -> np.ndarray:
    """A read-only float64 copy of ``arr`` (with ``adopt``, ``arr`` itself),
    checked ``ndim``-dimensional, non-empty, real and finite."""
    out = arr if adopt else np.array(_real_array(arr, name), dtype=np.float64)
    if out.ndim != ndim:
        raise ShapeError(f"{name} must be {ndim}-dimensional, got shape {out.shape}")
    if out.size == 0:
        raise ShapeError(f"{name} must be non-empty, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise NumericRangeError(f"{name} contains non-finite entries")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class _Fresh:
    """An array the package has just built and solely holds. :func:`_freeze`
    adopts it when it is a plain float64 ndarray that owns C-contiguous,
    writeable data, and copies anything else. The checks run either way."""

    arr: np.ndarray


class _Frozen:
    """Base of the frozen dataclasses that hold arrays.

    Their constructors copy (or adopt, see :class:`_Fresh`) and freeze
    every array with :func:`_freeze`, but the default dataclass copy and
    pickle paths skip the constructor and give writeable arrays.
    Rebuilding through the constructor makes the arrays read-only private
    copies again, and nothing cached on the original carries over.
    """

    def __reduce__(self):
        return (type(self), tuple(getattr(self, f.name) for f in fields(self)))


def _freeze(obj, **ndims) -> tuple:
    """Replace each named array field of the frozen ``obj`` by its
    :func:`_as_float_array` copy with the given ndim, or adopt it (see
    :class:`_Fresh`), in argument order; return the arrays in that order."""
    arrays = []
    for name, ndim in ndims.items():
        arr = getattr(obj, name)
        adopt = isinstance(arr, _Fresh)
        if adopt:
            arr = arr.arr
            adopt = type(arr) is np.ndarray and arr.dtype == np.float64 and all(
                arr.flags[f] for f in ("OWNDATA", "C_CONTIGUOUS", "WRITEABLE"))
        arr = _as_float_array(arr, name, ndim, adopt)
        object.__setattr__(obj, name, arr)
        arrays.append(arr)
    return tuple(arrays)


def _check_int(name: str, v, lo: int = 1) -> None:
    """Raise ValueError unless ``v`` is a Python int, not a bool, >= ``lo``."""
    if not _is_int(v) or v < lo:
        need = "a positive integer" if lo == 1 else f"an integer >= {lo}"
        raise ValueError(f"{name} must be {need}, got {v!r}")


@dataclass(frozen=True)
class FeatureSequence(_Frozen):
    """A length-T sequence of d-dimensional real feature frames.

    ``data`` has shape (T, d); it is copied on construction (unless the
    package has just built it), checked finite, and frozen. Every mixer
    in this package maps one of these to another of the same shape.
    """

    data: np.ndarray

    def __post_init__(self) -> None:
        _freeze(self, data=2)

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
            if not _is_int(self.order) or self.order < 1:
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
class MatrixMixer(_Frozen):
    """A square mixing matrix together with its claimed structural class."""

    m: np.ndarray
    class_tag: MixerClass

    def __post_init__(self) -> None:
        (m,) = _freeze(self, m=2)
        if m.shape[0] != m.shape[1]:
            raise ShapeError(f"mixing matrix must be square, got shape {m.shape}")
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
    return FeatureSequence(_Fresh(mixer.m @ x.data))


def _is_int(v) -> bool:
    """True for a Python int that is not a bool (an ``int`` subclass)."""
    return isinstance(v, int) and not isinstance(v, bool)


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


def _per_tol_cache(mixer: MatrixMixer, name: str) -> dict:
    """The dict kept on ``mixer`` under ``name`` for results keyed by
    ``tol``, made on first use."""
    cache = mixer.__dict__.get(name)
    if cache is None:
        cache = {}
        object.__setattr__(mixer, name, cache)
    return cache


def _rank(mixer: MatrixMixer, tol: float) -> int:
    """Numerical rank of the whole matrix at ``tol``: the count of the
    full values-only SVD's values above ``tol`` times its largest.

    Kept on the instance per ``tol``. A mixer whose own tag is
    ``low_rank(r)`` with ``2 (r + _SKETCH_OVERSAMPLE) <= T`` is first
    counted from a sketch (:func:`_sketched_rank`), which either
    certifies the count the full SVD gives or declines; every other
    mixer, and every declined sketch, takes the full SVD of
    :func:`_singular_values`. Once those values exist they are used.
    """
    cache = _per_tol_cache(mixer, "_ranks")
    rank = cache.get(tol)
    if rank is None:
        tag = mixer.class_tag
        if (tag.kind == "low_rank" and "_singular_values" not in mixer.__dict__
                and 2 * (tag.order + _SKETCH_OVERSAMPLE) <= mixer.T):
            rank = _sketched_rank(mixer.m, tol, tag.order + _SKETCH_OVERSAMPLE)
        if rank is None:
            values = _singular_values(mixer)
            rank = _rank_against(values, tol, float(values[0]))
        cache[tol] = rank
    return rank


def _sketched_rank(m: np.ndarray, tol: float, width: int) -> Optional[int]:
    """The full values-only SVD's rank count of ``m`` at ``tol``, from a
    ``width``-column sketch, or None when the sketch cannot certify it.

    A randomized range finder (Halko, Martinsson & Tropp 2011, SIAM Rev.
    53(2)): Y = m Omega for a fixed Philox Gaussian Omega of ``width``
    columns, Q from the QR factorization of Y, C = Q^T m and E = m - Q C,
    all as computed, so m = Q C + E holds exactly for the E below. The
    counts are those of C's singular values s against tol * s_1. Every
    value the full SVD would return lies within ``band`` of s_i (i <=
    width) or of 0 (past width):

    * C's SVD is within one ``_SWEEP_ROUNDING`` allowance, rho = 16 eps
      T, of C's exact values, and the full SVD within another of m's;
    * with eta bounding ||Q^T Q - I||_2, measured from the computed
      Gram and charged its product's rounding gamma_T ||Q||_F^2, Q's
      singular values lie in [sqrt(1 - eta), sqrt(1 + eta)], so those of
      Q C are within eta sigma_i(C) of C's;
    * by Weyl's inequality those of m are within ||E||_2 <= ||E||_F of
      Q C's, and past ``width`` within it of zero. ||E||_F is taken from
      E's entries, formed ``_SKETCH_ROWS`` rows at a time with the
      rounding of Q C (gamma_width ||Q||_F ||C||_F), of the subtraction
      (u) and of the sum of squares (gamma_(T^2)) charged (Higham 2002,
      section 3.1), plus an allowance for squares and products that
      underflow. C's own rounding needs no term: E is measured against
      C as computed.

    The count is returned only when no s_i, and no 0 standing for the
    values past ``width``, lies within ``reach`` of tol * s_1: ``band``
    plus how far the full SVD's threshold can sit from tol * s_1. A
    non-finite or NaN quantity anywhere fails that test.
    """
    from .rng import make_rng

    T = m.shape[0]
    rho = _SWEEP_ROUNDING * _EPS * T
    with np.errstate(all="ignore"):
        try:
            q = np.linalg.qr(m @ make_rng(_SKETCH_SEED).standard_normal((T, width)))[0]
            c = q.T @ m
            s = np.linalg.svd(c, compute_uv=False)
        except np.linalg.LinAlgError:
            return None
        gram = q.T @ q
        q_frobenius = math.sqrt(float(gram.trace()) * (1.0 + 2.0 * _gamma(T + width)))
        gram.flat[:: width + 1] -= 1.0
        # plus an allowance for Gram entries that underflow
        eta = (float(np.linalg.norm(gram)) * (1.0 + _gamma(width * width + 4))
               + _gamma(T) * q_frobenius**2 + _SWEEP_TINY_ROOT)
        if not eta < 0.5:
            return None
        rows = min(T, _SKETCH_ROWS)
        part = np.empty((rows, T))
        squares = 0.0
        for lo in range(0, T, rows):
            e = part[: min(rows, T - lo)]
            np.matmul(q[lo : lo + rows], c, out=e)
            np.subtract(m[lo : lo + rows], e, out=e)
            squares += float(np.vdot(e, e))
        top = float(s[0])
        # C's largest exact value, and a bound on ||E||_F
        c_top = top / (1.0 - rho)
        residual = (math.sqrt(squares) * (1.0 + _gamma(T * T + 2)) * (1.0 + 2.0 * _EPS)
                    + _gamma(width) * q_frobenius * math.sqrt(width) * c_top
                    + T * (width + 2) * _SWEEP_TINY_ROOT)
        m_top = c_top * (1.0 + eta) + residual
        band = rho * c_top + eta * c_top + residual + rho * m_top
        threshold = tol * top
        reach = (band + tol * (band + 2.0 * _EPS * (top + band))) * (1.0 + 8.0 * _EPS)
        if not np.all(np.abs(np.append(s, 0.0) - threshold) > reach):
            return None
    return _rank_against(s, tol, top)


def _split_ranks_cached(mixer: MatrixMixer, tol: float, order: int) -> tuple:
    """Lower and upper block ranks of ``mixer`` at ``tol``, one sweep each.

    The ranks depend only on the matrix and ``tol``, not on the class
    being checked (``order`` only steers the sweep's cost), so they are
    kept on the instance next to the singular values, keyed by ``tol``.
    """
    cache = _per_tol_cache(mixer, "_split_ranks")
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
# Most splits one rank-stable certificate covers. A batch costs about
# twenty numpy calls whatever its width, so wide batches save per-call
# overhead while they certify; the columns past a failing residual or
# certificate were solved for nothing.
_SWEEP_BATCH = 16
# Keeps entry (s, t) of a batch's top rows when s >= t: column t starts t
# rows below the first.
_BATCH_MASK = np.tri(_SWEEP_BATCH)
# Underflow allowance per term of a norm taken from a sum of squares: a
# square can lose up to the subnormal spacing, far below this value's
# square, and the square root turns that into an absolute error of this
# order.
_SWEEP_TINY_ROOT = math.sqrt(float(np.finfo(np.float64).tiny))


# The sketch that counts a low_rank(r) mixer's rank has r + this many
# columns; it is tried only when twice its width is at most T, where it
# costs well under the full SVD it replaces.
_SKETCH_OVERSAMPLE = 8
# Philox seed of the sketch's Gaussian test matrix. Counts never depend
# on it: a poor draw only makes the sketch decline.
_SKETCH_SEED = 0
# Rows of the sketch residual formed at a time, so it needs no T x T array.
_SKETCH_ROWS = 64


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


def _rank_stable_steps(c: np.ndarray, cols: np.ndarray, threshold: float, err: float,
                       rounding: float, floor: float):
    """Fold the p columns of ``cols`` into the thin factor ``c`` without
    an SVD, when every block they reach keeps the factor's rank k and all
    k values clear the threshold; p = 1 is a single split.

    ``c`` is the factor of the block one split before the batch, and
    column t of ``cols`` is the t-th split's new column on ``c[1:]``'s
    rows; its first t entries belong to other blocks and are masked out.
    Column t is solved against ``c[t+1:]``: one product gives all
    right-hand sides, one stacked solve takes all Grams ``c[t+1:]^T
    c[t+1:]`` (``c[p:]``'s plus the rows above, so nothing cancels) and
    is refined once if a residual is not yet within the drop floor, and
    one product gives all residuals. Returns ``(new_c, step_err, q)``
    for the leading q columns within the floor, q halved while the
    certificate fails, or None when no column passes and the caller
    must take an SVD step.

    ``new_c = c[q:] L``, with ``L`` the Cholesky factor of ``I + Y Y^T``
    for the q solutions Y. ``step_err`` charges each residual norm and
    the rounding of its product and norm (Higham 2002, §3.1, with ``||
    |c| |y| || <= ||c||_F ||y||``), plus the rounding of ``new_c``:
    forming ``I + Y Y^T`` and the Cholesky backward error (Higham 2002,
    Thm 10.3) move ``L L^T`` by at most ``delta = 3 gamma (k +
    ||Y||_F^2)``; no eigenvalue of ``I + Y Y^T`` is below 1, so one of
    its exact square roots lies within ``delta`` of ``L``; the product
    adds ``gamma ||c||_F ||L||_F``. A Cholesky factorization of ``c[q:]^T
    c[q:]`` minus a shift certifies ``c[q:]``'s smallest value: the
    square of threshold plus band plus that rounding, plus the Gram
    product's rounding and the Cholesky backward error (Demmel 1989;
    Rump 2006, BIT 46). By the proof in :func:`_split_ranks` that
    certifies all q counts, and every value of ``new_c`` clears
    threshold + band.
    """
    rows, k = c.shape
    p = cols.shape[1]
    mask = _BATCH_MASK[:p, :p]
    slab = cols.copy()
    slab[:p] *= mask
    below, top = c[1:], c[1:p]
    grams = (top.T * mask[:-1].T[:, None, :]) @ top + c[p:].T @ c[p:]
    y, r = np.zeros((p, k)), slab
    try:
        # solve, then refine once if a residual is not yet within the floor;
        # comparisons are written so that a NaN fails them
        for _ in range(2):
            y += np.linalg.solve(grams, (below.T @ r).T[:, :, None])[:, :, 0]
            r = slab - below @ y.T
            r[:p] *= mask
            norms = np.sqrt(np.einsum("ij,ij->j", r, r))
            fits = norms <= floor
            if fits.all():
                break
    except np.linalg.LinAlgError:
        return None
    q = p if fits.all() else int(fits.argmin())
    if not q:
        return None
    g = _gamma(rows + 2 * k + 8)
    tiny = (rows + k + 8) * _SWEEP_TINY_ROOT
    frobenius = math.sqrt(float(grams[0].trace()))
    yy = np.einsum("ij,ij->i", y, y)
    charged = np.cumsum((1.0 + g) * norms + tiny + 2.0 * g * (
        np.sqrt(np.einsum("ij,ij->j", slab, slab)) + frobenius * np.sqrt(yy)))
    yy = np.cumsum(yy)
    while q:
        gram = grams[q - 1].copy()
        trace = float(gram.trace())
        spread = k + float(yy[q - 1])
        factor = math.sqrt(trace) * g * (4.0 * spread + 2.0 * math.sqrt(spread))
        step_err = float(charged[q - 1]) + factor
        band = err + step_err + rounding
        # Gram entries and Cholesky intermediates stay below the trace, so a
        # finite 4 * trace rules out overflow in the certificate
        if band < threshold and math.isfinite(4.0 * trace):
            clearance = (threshold + band + factor) * (1.0 + 8.0 * _EPS)
            gram.flat[:: k + 1] -= clearance * clearance + 2.0 * g * trace + tiny * tiny
            try:
                np.linalg.cholesky(gram)
                root = y[:q].T @ y[:q]
                root.flat[:: k + 1] += 1.0
                return c[q:] @ np.linalg.cholesky(root), step_err, q
            except np.linalg.LinAlgError:
                pass
        q //= 2
    return None


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

    Each step first tries a batch of rank-stable steps
    (:func:`_rank_stable_steps`), which needs no SVD. Write column t of
    the batch, ``a[i+t:, i-1+t]``, as ``c[t+1:] y_t + r_t``. Block i+j,
    for j < p, is then ``c[j+1:] [q.T, y_0, ..., y_j]`` plus ``[E[j+1:],
    r_0, ..., r_j]``, each r cut to the block's rows. The first term is
    ``c[j+1:] L_j Q_j`` with ``L_j L_j^T = I + Y_j Y_j^T`` and ``Q_j``
    with orthonormal rows, so by Weyl the block's values lie within
    ``err + sum ||r_t||`` of those of ``c[j+1:] L_j``, and past the
    factor's width k within that of zero. ``L_j L_j^T`` is at least I,
    so ``sigma_min(c[j+1:] L_j) >= sigma_min(c[j+1:])``, and deleting
    rows cannot raise a singular value, so that is at least
    ``sigma_min(c[p:])``. One shifted Cholesky factorization of
    ``c[p:]^T c[p:]`` against the whole batch's band therefore certifies
    all p counts as k, and ``c[p:] L_{p-1}`` is the next factor. err
    only grows, so the batch's band is the largest of its splits'; k is
    fixed inside a batch, so the cost switch below is checked at every
    split it covers before it starts. ``c[p:]`` needs k rows for a
    nonsingular Gram, which bounds p at the end of the sweep. After an
    accepted batch the next is up to ``_SWEEP_BATCH`` columns; after an
    SVD step it is one column, since the rank may still be moving, or
    none when a failed certificate left the factor no wider.

    An empty factor needs only the column's norm. Otherwise the step
    takes the thin SVD of ``w``. A count is taken from it only when no
    singular value of ``w``, nor the implicit zeros past its width, lies
    within ``err`` plus the rounding allowance of the threshold;
    otherwise that one block gets the exact SVD. Values of ``w`` below a
    floor far under the threshold are dropped from ``c``, and their sum
    is added to err. Once the band reaches the threshold, the rest of
    the sweep uses exact SVDs.

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

    def exact_pays(i: int, k: int) -> bool:
        rows = T - i
        return i > judge_from and _THIN_SVD_COST * _svd_cost(rows, k + 1) > _svd_cost(rows, i)

    ranks = []
    c = np.zeros((T, 0))
    err = 0.0
    batch = 1
    i = 1
    while i < T:
        rows = T - i
        band = err + 2.0 * rounding
        k = c.shape[1]
        # a band reaching the threshold can certify no later count either
        if band >= threshold or exact_pays(i, k):
            ranks.extend(_block_rank(block(j), tol, sigma_ref) for j in range(i, T))
            break
        col = a[i:, i - 1]
        if k == 0:
            # the column itself is the kept factor, so only the norm rounds
            s = np.array([_norm(col)])
            factor = col[:, None]
            charge = float(s[0]) * _gamma(rows + 4)
        else:
            p = 0
            while p < min(batch, rows + 1 - k) and not exact_pays(i + p, k):
                p += 1
            step = p and _rank_stable_steps(c, a[i:, i - 1:i - 1 + p], threshold, err, rounding, floor)
            if step:
                c, step_err, done = step
                err += step_err
                ranks.extend([k] * done)
                i += done
                batch = _SWEEP_BATCH
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
        # a failed certificate that left the factor no wider means one
        # direction replaced another, which tends to go on: the next split
        # skips its certificate. A rank still growing may stop at the next
        # split, so that one tries.
        batch = 0 if k and p and keep.sum() <= k else 1
        c = factor[:, keep]
        i += 1
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
    largest singular value (see module docstring). For the split sweeps
    that reference comes from one values-only SVD of the whole matrix,
    an O(T^3) step that is kept on the mixer. The dense and low_rank
    checks report the whole matrix's rank, kept on the mixer per ``tol``
    and shared with :func:`~mixerlab.diagnostics.numerical_rank`: the
    count that SVD gives, taken from it, or, for a mixer whose own tag
    is ``low_rank(r)`` with T at least 2(r + 8), from an (r + 8)-column
    sketch whenever rounding bounds certify that the SVD would give the
    same count (see :func:`_sketched_rank`).

    The split sweep is compressed: one pass per side carries a thin
    factor of the current block, so a step costs at most an SVD of a
    (T - i) x (k + 1) matrix, k being the block's kept rank, and a
    rank-k mixer costs O(T^2 k^2) instead of the O(T^4) of 2(T - 1)
    full block SVDs. Most steps need no SVD at all: while the new
    columns lie in the factor's range to within a floor far below the
    threshold, up to ``_SWEEP_BATCH`` of them are folded into the
    factor at once, and one shifted Cholesky factorization of a Gram
    matrix proves that all k values clear the threshold in every block
    they reach, so the rank stays k. An empty factor needs only the
    column's norm. Thin SVDs remain where a block's rank changes or a
    value comes near the threshold. Each count is certified: residuals
    and dropped singular values, with eps-scale rounding allowances,
    bound how far the factor's singular values can sit from the
    block's, and a block with a value inside that band of ``tol`` times
    the reference scale is recounted with an exact SVD. A side whose
    kept rank grows so large that the thin SVDs cost more than exact
    ones finishes with exact SVDs. The report is the one exact block
    SVDs give.

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
        rank = _rank(mixer, tol)
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
