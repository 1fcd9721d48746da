"""Mixer-map analysis: ranks, row-difference histograms, locality.

These tools quantify how much a mixing matrix actually discriminates
between positions. A low numerical rank means many output rows are
linear combinations of few directions; tightly clustered pairwise row
distances mean the map treats most queries alike; locality mass
measures how much of each row's weight sits near its own diagonal.
Everything operates on any :class:`~mixerlab.mixer_core.MatrixMixer`,
and the CSV emitters are what the command-line `diagnose` report uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from ._io import write_csv
from .attention import _check_qk, _favor_weights, draw_orthogonal_features, softmax_mixer
from .mixer_core import (
    DEFAULT_RANK_TOL,
    MatrixMixer,
    MixerClass,
    NumericRangeError,
    _Fresh,
    _Frozen,
    _check_int,
    _check_tol,
    _freeze,
    _rank,
)

__all__ = [
    "Histogram",
    "MixerReport",
    "head_average",
    "numerical_rank",
    "pairwise_l2_histogram",
    "locality_mass",
    "approximation_error_curve",
    "default_windows",
    "build_mixer_report",
    "write_rank_report",
    "write_l2_hist",
    "write_locality",
    "write_approx_curve",
]

# width of the single bin used when every distance is zero (or there
# are no pairs at all): [0, eps)
_EMPTY_BIN_WIDTH = 1e-12

# Row-distance histograms work on blocks of about this many row pairs,
# so their transient arrays stay a few times this many floats.
_PAIR_BLOCK = 1 << 14
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_TINY = np.finfo(np.float64).tiny
# a squared distance bound at or above this is not trusted: the
# reference arithmetic may overflow there
_SQUARE_LIMIT = 2.0**1020


@dataclass(frozen=True)
class Histogram(_Frozen):
    """Binned nonnegative values: ascending edges, integer counts.

    ``counts`` may be given as integers or integer-valued floats and is
    stored as int64; ``total``, their sum, must be a Python int.
    """

    bin_edges: np.ndarray
    counts: np.ndarray
    total: int

    def __post_init__(self) -> None:
        (edges,) = _freeze(self, bin_edges=1)
        raw = np.asarray(self.counts)
        whole = raw.dtype.kind in "iu" or (
            raw.dtype.kind == "f" and np.all(np.isfinite(raw) & (raw == np.round(raw))))
        if not whole:
            raise ValueError(f"counts must be integer-valued, got {self.counts!r}")
        counts = raw.astype(np.int64)
        if counts.ndim != 1:
            raise ValueError(f"counts must be 1-dimensional, got shape {counts.shape}")
        if edges.shape[0] != counts.shape[0] + 1:
            raise ValueError(
                f"{edges.shape[0]} edges do not delimit {counts.shape[0]} bins"
            )
        if np.any(np.diff(edges) <= 0):
            raise ValueError("bin edges must be strictly increasing")
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        _check_int("total", self.total, 0)
        if int(counts.sum()) != self.total:
            raise ValueError(
                f"counts sum to {int(counts.sum())} but total says {self.total}"
            )
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    @property
    def bins(self) -> int:
        return self.counts.shape[0]


@dataclass(frozen=True)
class MixerReport:
    """Bundle of diagnostics for one mixer, labeled by kind."""

    kind_label: str
    rank: int
    row_sum_range: Tuple[float, float]
    l2_histogram: Histogram
    windows: Tuple[int, ...]
    locality: Tuple[float, ...]

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"rank must be nonnegative, got {self.rank}")
        if len(self.windows) != len(self.locality):
            raise ValueError("windows and locality lengths differ")


def head_average(mixers: Iterable[MatrixMixer]) -> MatrixMixer:
    """Elementwise mean of same-size mixers, tagged dense.

    ``mixers`` may be any iterable, a generator included: it is read
    once, in order, and only the running sum is kept, so averaging H
    maps built one at a time holds two of them at once, not H. The sum
    runs in input order (``s = first.copy(); s += next ...; s /= n``),
    which is bit for bit ``np.mean(np.stack(maps), axis=0)``.

    Averaging does not preserve structural classes, so the result is
    always dense regardless of the inputs' tags.
    """
    total = None
    n = 0
    for mx in mixers:
        if total is None:
            T = mx.T
            total = mx.m.copy()
        elif mx.T != T:
            raise ValueError(f"mixer {n} is {mx.T}x{mx.T}, expected {T}x{T}")
        else:
            total += mx.m
        n += 1
        # not kept while a generator builds the next one
        del mx
    if total is None:
        raise ValueError("cannot average an empty list of mixers")
    total /= n
    return MatrixMixer(_Fresh(total), MixerClass.dense())


def numerical_rank(mixer: MatrixMixer, tol: float = DEFAULT_RANK_TOL) -> int:
    """Count of singular values above tol times the largest one.

    The zero matrix has rank 0. The count is the one a values-only SVD
    of the whole matrix gives, kept on the mixer per ``tol`` and shared
    with :func:`~mixerlab.mixer_core.check_structure`. A mixer tagged
    ``low_rank(r)`` with T at least 2(r + 8) is counted from an
    (r + 8)-column sketch when rounding bounds certify that count, and
    takes the full SVD otherwise; every other mixer takes the full SVD,
    one per mixer. SVD non-convergence propagates as numpy's LinAlgError.
    """
    _check_tol(tol)
    return _rank(mixer, tol)


def _exact_distances(m: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """||m[j] - m[i]|| per index pair, in the reference arithmetic:
    ``d = m[j] - m[i]; sqrt(sum(d * d))``, summed along the row."""
    out = np.empty(i.shape[0])
    step = max(1, _PAIR_BLOCK // m.shape[1])
    for k in range(0, i.shape[0], step):
        d = m[j[k : k + step]] - m[i[k : k + step]]
        out[k : k + step] = np.sqrt(np.sum(d * d, axis=1))
    return out


def _distance_bounds(m: np.ndarray) -> list:
    """Certified bounds on every reference row distance, in row blocks.

    Block ``(r0, lo, hi)`` covers rows r0 .. r0 + len(lo) - 1 against
    rows r0 + 1 .. T - 1: the distance between rows r0 + a and
    r0 + 1 + c lies in [lo[a, c], hi[a, c]], a pair only when c >= a
    (see :func:`_pair_mask`).

    Squared distances come from the Gram form |m_i|^2 + |m_j|^2 -
    2 (m m^T)_ij. With u the unit roundoff and gamma_n = n u / (1 - n u)
    (Higham 2002, section 3.1), that differs from the exact squared
    distance by at most gamma_T (|m_i| + |m_j|)^2, and the reference
    loop's squares and sum by at most gamma_(T+2) times the exact
    value, which is no larger. The margin charges twice their sum, plus
    an absolute term for products that underflow, and the square roots
    get 8u each way. An estimate near overflow certifies nothing: it
    gets [0, inf]. A non-finite one always comes with an infinite margin,
    since (|m_i| + |m_j|)^2 bounds every term of the Gram form.
    """
    T = m.shape[0]
    n = T + 4
    gamma = 4.0 * n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
    blocks = []
    with np.errstate(over="ignore", invalid="ignore"):
        sq = np.einsum("ij,ij->i", m, m)
        norms = np.sqrt(sq)
        r0 = 0
        while r0 < T - 1:
            r1 = min(T - 1, r0 + max(1, _PAIR_BLOCK // (T - 1 - r0)))
            s = sq[r0:r1, None] + sq[None, r0 + 1 :] - 2.0 * (m[r0:r1] @ m[r0 + 1 :].T)
            e = gamma * (norms[r0:r1, None] + norms[None, r0 + 1 :]) ** 2 + 16.0 * n * _TINY
            lo = np.sqrt(np.fmax(s - e, 0.0)) * (1.0 - 8.0 * _UNIT_ROUNDOFF)
            upper = s + e
            hi = np.where(
                upper < _SQUARE_LIMIT,
                np.sqrt(np.fmax(upper, 0.0)) * (1.0 + 8.0 * _UNIT_ROUNDOFF),
                np.inf,
            )
            blocks.append((r0, lo, hi))
            r0 = r1
    return blocks


def _pair_mask(shape) -> np.ndarray:
    """Entries (a, c) of a distance block with c >= a, the i < j pairs."""
    return ~np.tri(shape[0], shape[1], -1, dtype=bool)


def pairwise_l2_histogram(mixer: MatrixMixer, bins: int = 50) -> Histogram:
    """Histogram of ||row_i - row_j|| over all i < j pairs.

    Bins span [0, observed max]. When there are no pairs (T == 1) or
    every distance is zero (all rows identical), the histogram collapses
    to a single [0, eps) bin holding all the mass.

    The distances are those of the reference loop, ``d = m[j] - m[i];
    sqrt(sum(d * d))``, and the result is bit for bit what
    ``np.histogram`` makes of them, but most are never computed that
    way. Squared distances come from the Gram matrix, one matrix
    product per block of rows, and a rounding bound turns each into an
    interval certain to hold the reference value (see
    :func:`_distance_bounds`). Only pairs that can be the maximum, or
    whose interval holds a bin edge, are recomputed with the reference
    arithmetic. Work is done in row blocks, so transient memory stays
    near two floats per pair.
    """
    _check_int("bins", bins)
    m = mixer.m
    T = mixer.T
    total = T * (T - 1) // 2
    blocks = _distance_bounds(m)

    # the pair with the largest lower bound has a distance >= floor, so
    # only pairs whose upper bound reaches floor can be the maximum
    floor = max((float(np.max(lo, where=_pair_mask(lo.shape), initial=0.0))
                 for _, lo, _ in blocks), default=0.0)
    vmax = 0.0
    for r0, lo, hi in blocks:
        a, c = np.nonzero(_pair_mask(lo.shape) & (hi >= floor))
        vmax = max(vmax, float(_exact_distances(m, r0 + a, r0 + 1 + c).max(initial=0.0)))
    if vmax == 0.0:
        return Histogram(np.array([0.0, _EMPTY_BIN_WIDTH]), np.array([total]), total)
    # the edges np.histogram uses, and its ValueError for an infinite max
    edges = np.histogram_bin_edges(np.array([vmax]), bins=bins, range=(0.0, vmax))
    # bin k holds edges[k] <= v < upper[k]; the last bin is closed
    upper = np.append(edges[1:-1], np.inf)

    counts = np.zeros(bins, dtype=np.int64)
    for r0, lo, hi in blocks:
        guess = np.minimum((lo / vmax * bins).astype(np.intp), bins - 1)
        sure = _pair_mask(lo.shape) & (edges[guess] <= lo) & (hi < upper[guess])
        counts += np.bincount(guess[sure], minlength=bins)
        a, c = np.nonzero(_pair_mask(lo.shape) & ~sure)
        if a.size:
            exact = _exact_distances(m, r0 + a, r0 + 1 + c)
            found = np.minimum(np.searchsorted(edges, exact, side="right") - 1, bins - 1)
            counts += np.bincount(found, minlength=bins)
    return Histogram(edges, counts, total)


def _check_window(window) -> int:
    """A locality window as an int: Python or numpy integers >= 0."""
    if (
        not isinstance(window, (int, np.integer))
        or isinstance(window, bool)
        or window < 0
    ):
        raise ValueError(f"window must be a nonnegative integer, got {window!r}")
    return int(window)


def _locality_profile(m: np.ndarray, windows: Sequence[int]) -> Tuple[float, ...]:
    """:func:`locality_mass` for each window, in the caller's order.

    Windows are taken in ascending order while one buffer is filled from
    |m| diagonal by diagonal, so for window w it holds |m| inside the
    band |i - j| <= w and 0.0 outside: the array the definition masks,
    summed by rows the same way. Filled to T - 1 it gives the row
    totals. Scratch is that one T x T buffer, whatever the windows.
    """
    T = m.shape[0]
    flat = np.ravel(m)
    band = np.zeros((T, T))
    fill = band.ravel()
    near = {}
    d = 0
    for w in sorted(set(windows) | {T - 1}):
        while d <= min(w, T - 1):
            # the d-th diagonals above and below start at flat d and d * T
            for start in {d, d * T}:
                diag = slice(start, start + (T - d - 1) * (T + 1) + 1, T + 1)
                np.abs(flat[diag], out=fill[diag])
            d += 1
        near[w] = band.sum(axis=1)
    full = near[T - 1]
    nonzero = full > 0.0
    denom = np.where(nonzero, full, 1.0)
    return tuple(float(np.mean(np.where(nonzero, near[w] / denom, 1.0))) for w in windows)


def locality_mass(mixer: MatrixMixer, window: int) -> float:
    """Mean fraction of absolute row mass within ``window`` of the diagonal.

    Row i contributes sum(|m[i, j]| for |j - i| <= window) divided by
    its total absolute mass; all-zero rows count as 1.0 (everything they
    have, which is nothing, is local). The result is in [0, 1], is
    nondecreasing in the window, and is exactly 1.0 once the window
    reaches T - 1.
    """
    return _locality_profile(mixer.m, (_check_window(window),))[0]


def approximation_error_curve(
    q, k, r_values: Iterable[int], seeds: Iterable[int]
) -> Tuple[Tuple[int, float], ...]:
    """Median relative Frobenius error of the random-feature mixer vs
    the exact softmax mixer, per feature count.

    For each r, draws one feature matrix per seed, and reports the
    median over seeds of ||favor - softmax||_F / ||softmax||_F. More
    features means lower estimator variance, so the curve should fall
    as r grows.

    Every r must be a Python int >= 1 and every seed a Python int >= 0;
    anything else raises ValueError before a feature matrix is drawn.
    Each draw's map is written into one reused T x T buffer and checked
    finite as :func:`~mixerlab.attention.favor_mixer` checks it, and
    its features phi(q) and phi(k) into one reused (2, T * max(r))
    buffer, so memory stays at the exact map plus those buffers,
    whatever the number of draws. The errors are bit for bit those of
    building ``favor_mixer(q, k, omega)`` for every draw. Each Frobenius
    norm is the root of an ``einsum`` sum of squares, which allocates
    nothing and calls no BLAS, so the curve does not depend on the BLAS
    thread count.
    """
    q, k = _check_qk(q, k)
    r_values, seeds = tuple(r_values), tuple(seeds)
    if len(r_values) == 0 or len(seeds) == 0:
        raise ValueError("r_values and seeds must be nonempty")
    for r in r_values:
        _check_int("r", r)
    for seed in seeds:
        _check_int("seed", seed, 0)
    exact = softmax_mixer(q, k).m
    ref = float(np.sqrt(np.einsum("ij,ij->", exact, exact)))
    d = q.shape[1]
    buf = np.empty_like(exact)
    features = np.empty((2, q.shape[0] * max(r_values)))
    table = []
    for r in r_values:
        errs = []
        for seed in seeds:
            _favor_weights(q, k, draw_orthogonal_features(d, r, seed), out=buf, features=features)
            if not np.all(np.isfinite(buf)):
                raise NumericRangeError("m contains non-finite entries")
            buf -= exact
            errs.append(float(np.sqrt(np.einsum("ij,ij->", buf, buf))) / ref)
        table.append((r, float(np.median(errs))))
    return tuple(table)


def default_windows(T: int) -> Tuple[int, ...]:
    """Window sweep for locality profiles: 0, powers of two, and T-1."""
    _check_int("T", T)
    windows = {0, T - 1}
    w = 1
    while w < T - 1:
        windows.add(w)
        w *= 2
    return tuple(sorted(windows))


def build_mixer_report(
    mixer: MatrixMixer,
    kind_label: str,
    tol: float = DEFAULT_RANK_TOL,
    bins: int = 50,
    windows: Optional[Sequence[int]] = None,
) -> MixerReport:
    """Run the full diagnostic battery on one mixer.

    ``windows`` entries must be nonnegative Python or numpy integers;
    anything else raises ValueError. The locality profile is computed in
    one pass over the matrix for all windows.
    """
    if windows is None:
        windows = default_windows(mixer.T)
    windows = tuple(_check_window(w) for w in windows)
    row_sums = mixer.m.sum(axis=1)
    return MixerReport(
        kind_label=kind_label,
        rank=numerical_rank(mixer, tol),
        row_sum_range=(float(row_sums.min()), float(row_sums.max())),
        l2_histogram=pairwise_l2_histogram(mixer, bins),
        windows=windows,
        locality=_locality_profile(mixer.m, windows),
    )


def write_rank_report(path, rows: Iterable[Sequence]) -> None:
    """rows: (mixer_kind, T, d_or_N, r, rank); r may be None."""
    write_csv(path, ("mixer_kind", "T", "d_or_N", "r", "rank"), rows)


def write_l2_hist(path, labeled: Iterable[Tuple[str, Histogram]]) -> None:
    rows = []
    for label, hist in labeled:
        for b in range(hist.bins):
            rows.append(
                (
                    float(hist.bin_edges[b]),
                    float(hist.bin_edges[b + 1]),
                    int(hist.counts[b]),
                    label,
                )
            )
    write_csv(path, ("bin_lo", "bin_hi", "count", "mixer_kind"), rows)


def write_locality(path, labeled: Iterable[Tuple[str, MixerReport]]) -> None:
    rows = []
    for label, report in labeled:
        for w, mass in zip(report.windows, report.locality):
            rows.append((w, mass, label))
    write_csv(path, ("window", "mass", "mixer_kind"), rows)


def write_approx_curve(path, table: Iterable[Tuple[int, float]]) -> None:
    write_csv(path, ("r", "median_rel_err"), table)
