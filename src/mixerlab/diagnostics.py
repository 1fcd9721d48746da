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
from .attention import draw_orthogonal_features, favor_mixer, softmax_mixer
from .mixer_core import (
    DEFAULT_RANK_TOL,
    MatrixMixer,
    MixerClass,
    _as_float_array,
    _check_tol,
    _rank_against,
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


@dataclass(frozen=True)
class Histogram:
    """Binned nonnegative values: ascending edges, integer counts."""

    bin_edges: np.ndarray
    counts: np.ndarray
    total: int

    def __post_init__(self) -> None:
        edges = _as_float_array(self.bin_edges, "bin_edges", 1)
        counts = np.array(self.counts, dtype=np.int64)
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
        if int(counts.sum()) != self.total:
            raise ValueError(
                f"counts sum to {int(counts.sum())} but total says {self.total}"
            )
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "total", int(self.total))

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


def head_average(mixers: Sequence[MatrixMixer]) -> MatrixMixer:
    """Elementwise mean of same-size mixers, tagged dense.

    Averaging does not preserve structural classes, so the result is
    always dense regardless of the inputs' tags.
    """
    if len(mixers) == 0:
        raise ValueError("cannot average an empty list of mixers")
    T = mixers[0].T
    for i, mx in enumerate(mixers):
        if mx.T != T:
            raise ValueError(f"mixer {i} is {mx.T}x{mx.T}, expected {T}x{T}")
    mean = np.mean(np.stack([mx.m for mx in mixers]), axis=0)
    return MatrixMixer(mean, MixerClass.dense())


def numerical_rank(mixer: MatrixMixer, tol: float = DEFAULT_RANK_TOL) -> int:
    """Count of singular values above tol times the largest one.

    The zero matrix has rank 0. SVD non-convergence propagates as
    numpy's LinAlgError.
    """
    _check_tol(tol)
    sv = np.linalg.svd(mixer.m, compute_uv=False)
    return _rank_against(sv, tol, sv[0])


def pairwise_l2_histogram(mixer: MatrixMixer, bins: int = 50) -> Histogram:
    """Histogram of ||row_i - row_j|| over all i < j pairs.

    Bins span [0, observed max]. When there are no pairs (T == 1) or
    every distance is zero (all rows identical), the histogram collapses
    to a single [0, eps) bin holding all the mass.
    """
    if not isinstance(bins, int) or isinstance(bins, bool) or bins < 1:
        raise ValueError(f"bins must be a positive integer, got {bins!r}")
    m = mixer.m
    T = mixer.T
    dists = []
    for i in range(T - 1):
        diff = m[i + 1 :] - m[i]
        dists.append(np.sqrt(np.sum(diff * diff, axis=1)))
    values = np.concatenate(dists) if dists else np.zeros(0)
    total = T * (T - 1) // 2
    assert values.shape[0] == total
    if total == 0 or values.max() == 0.0:
        edges = np.array([0.0, _EMPTY_BIN_WIDTH])
        counts = np.array([total])
        return Histogram(edges, counts, total)
    counts, edges = np.histogram(values, bins=bins, range=(0.0, float(values.max())))
    return Histogram(edges, counts, total)


def locality_mass(mixer: MatrixMixer, window: int) -> float:
    """Mean fraction of absolute row mass within ``window`` of the diagonal.

    Row i contributes sum(|m[i, j]| for |j - i| <= window) divided by
    its total absolute mass; all-zero rows count as 1.0 (everything they
    have, which is nothing, is local). The result is in [0, 1], is
    nondecreasing in the window, and is exactly 1.0 once the window
    reaches T - 1.
    """
    if not isinstance(window, int) or isinstance(window, bool) or window < 0:
        raise ValueError(f"window must be a nonnegative integer, got {window!r}")
    absm = np.abs(mixer.m)
    idx = np.arange(mixer.T)
    mask = np.abs(idx[:, None] - idx[None, :]) <= window
    near = (absm * mask).sum(axis=1)
    full = absm.sum(axis=1)
    ratios = np.where(full > 0.0, near / np.where(full > 0.0, full, 1.0), 1.0)
    return float(np.mean(ratios))


def approximation_error_curve(
    q, k, r_values: Sequence[int], seeds: Sequence[int]
) -> Tuple[Tuple[int, float], ...]:
    """Median relative Frobenius error of the random-feature mixer vs
    the exact softmax mixer, per feature count.

    For each r, draws one feature matrix per seed, and reports the
    median over seeds of ||favor - softmax||_F / ||softmax||_F. More
    features means lower estimator variance, so the curve should fall
    as r grows.
    """
    q = _as_float_array(q, "q", 2)
    k = _as_float_array(k, "k", 2)
    if q.shape != k.shape:
        raise ValueError(f"q and k must share one shape, got {q.shape} and {k.shape}")
    if len(r_values) == 0 or len(seeds) == 0:
        raise ValueError("r_values and seeds must be nonempty")
    exact = softmax_mixer(q, k).m
    ref = float(np.linalg.norm(exact))
    d = q.shape[1]
    table = []
    for r in r_values:
        errs = []
        for seed in seeds:
            omega = draw_orthogonal_features(d, int(r), int(seed))
            approx = favor_mixer(q, k, omega).m
            errs.append(float(np.linalg.norm(approx - exact)) / ref)
        table.append((int(r), float(np.median(errs))))
    return tuple(table)


def default_windows(T: int) -> Tuple[int, ...]:
    """Window sweep for locality profiles: 0, powers of two, and T-1."""
    if T < 1:
        raise ValueError(f"T must be positive, got {T}")
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
    """Run the full diagnostic battery on one mixer."""
    if windows is None:
        windows = default_windows(mixer.T)
    windows = tuple(int(w) for w in windows)
    row_sums = mixer.m.sum(axis=1)
    return MixerReport(
        kind_label=kind_label,
        rank=numerical_rank(mixer, tol),
        row_sum_range=(float(row_sums.min()), float(row_sums.max())),
        l2_histogram=pairwise_l2_histogram(mixer, bins),
        windows=windows,
        locality=tuple(locality_mass(mixer, w) for w in windows),
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
