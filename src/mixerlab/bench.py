"""Runtime scaling measurements and log-log slope fits.

Times the operational forms only (streamed attention, feature-space
linear attention, sequential scans), never materialized T x T matrices.
For each sequence length the inputs are generated from the seed outside
the timed region and one warmup run is discarded; the lengths then take
turns through the timed repeats, and each one's median is recorded. A
least-squares line through (log T, log time) then estimates the
empirical complexity exponent: ~2 for the quadratic attention path, ~1
for the linear-time paths.

Measurements are single-threaded by contract: operations run strictly
one after another on the calling thread. Scan and favor inputs are
drawn like the cases of ``mixerlab equiv``, from one table of mixer kinds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from statistics import median
from typing import Sequence, Tuple

import numpy as np

from ._io import write_csv
from .attention import QkvTriple, draw_orthogonal_features, favor_attention, favor_mixer
from .attention import softmax_attention
from .mixer_core import _check_int, _is_int, _is_real
from .rng import make_rng
from .ssm import BiMambaParams, HydraParams, ScanParams, bimamba_apply, bimamba_mixer
from .ssm import hydra_apply, hydra_mixer, ssm_mixer, ssm_scan

__all__ = [
    "OP_LABELS",
    "BenchSample",
    "ScalingReport",
    "time_operation",
    "fit_loglog_slope",
    "write_bench_csv",
    "write_scaling_csv",
]

OP_LABELS = (
    "softmax_attention",
    "favor_attention",
    "ssm_scan",
    "bimamba_scan",
    "hydra_scan",
)


@dataclass(frozen=True)
class BenchSample:
    """One timed point: median wall seconds for an op at one size.

    ``r_or_N`` is the feature count (favor), the state size (scans), or
    0 for ops with no such parameter.
    """

    op_label: str
    T: int
    d: int
    r_or_N: int
    wall_time: float
    repeats: int

    def __post_init__(self) -> None:
        if self.op_label not in OP_LABELS:
            raise ValueError(f"unknown op_label {self.op_label!r}")
        for name, lo in (("T", 1), ("d", 1), ("r_or_N", 0), ("repeats", 3)):
            _check_int(name, getattr(self, name), lo)
        if not (_is_real(self.wall_time) and self.wall_time > 0):
            raise ValueError(f"wall_time must be positive and finite, got {self.wall_time!r}")


@dataclass(frozen=True)
class ScalingReport:
    """Fitted log-log line for one op across sequence lengths."""

    op_label: str
    fitted_slope: float
    r_squared: float
    samples: Tuple[BenchSample, ...]

    def __post_init__(self) -> None:
        if not 0.0 <= self.r_squared <= 1.0:
            raise ValueError(f"r_squared must be in [0, 1], got {self.r_squared!r}")
        object.__setattr__(self, "samples", tuple(self.samples))


def _random_qkv(rng: np.random.Generator, T: int, d: int) -> QkvTriple:
    scale = 1.0 / np.sqrt(d)
    return QkvTriple(
        q=rng.standard_normal((T, d)) * scale,
        k=rng.standard_normal((T, d)) * scale,
        v=rng.standard_normal((T, d)),
    )


def _random_scan_params(rng: np.random.Generator, T: int, N: int) -> ScanParams:
    # mixed magnitudes: per-instance scale in [0.1, 10] on top of
    # standard normal entries
    return ScanParams(
        a=rng.uniform(0.05, 1.0, T),
        b=rng.standard_normal((T, N)) * 10.0 ** rng.uniform(-1.0, 1.0),
        c=rng.standard_normal((T, N)) * 10.0 ** rng.uniform(-1.0, 1.0),
    )


def _or_draw(rng: np.random.Generator, v, hi: int) -> int:
    return int(rng.integers(1, hi + 1)) if v is None else v


def _draw_favor(rng: np.random.Generator, T, d, r):
    T = _or_draw(rng, T, 16)
    qkv = _random_qkv(rng, T, _or_draw(rng, d, 8))
    omega = draw_orthogonal_features(qkv.d_head, _or_draw(rng, r, 16), int(rng.integers(0, 2**62)))
    return (qkv, omega), qkv.v


def _mixer_kinds() -> dict:
    """Kind -> (draw, fast, matrix) of ``equiv``'s suites and the bench ops,
    built per call so that wrappers installed on these module names see
    the calls. ``draw(rng, T, d, size) -> (params, x)``, ``size`` being a
    scan's N or favor's r, draws a None argument where ``equiv`` does: a
    scan draws T in [1, 32], N in [1, 8], x of shape (T,) (d is unused),
    then its parameters; favor draws T in [1, 16], d in [1, 8], q, k, v
    (x is v, which params carry too), r in [1, 16], then the feature
    seed. ``fast(params, x)`` must equal ``apply_mixer(matrix(params), x)``.
    """

    def scan(make):
        def draw(rng, T, d, N):
            T, N = _or_draw(rng, T, 32), _or_draw(rng, N, 8)
            x = rng.standard_normal(T)
            return make(rng, T, N), x
        return draw

    p = _random_scan_params
    return {
        "ssm": (scan(p), ssm_scan, ssm_mixer),
        "bimamba": (
            scan(lambda rng, T, N: BiMambaParams(p(rng, T, N), p(rng, T, N))),
            bimamba_apply,
            bimamba_mixer,
        ),
        "hydra": (
            scan(lambda rng, T, N: HydraParams(p(rng, T, N), p(rng, T, N), rng.standard_normal(T))),
            hydra_apply,
            hydra_mixer,
        ),
        "favor": (
            _draw_favor,
            lambda params, v: favor_attention(*params).data,
            lambda params: favor_mixer(params[0].q, params[0].k, params[1]),
        ),
    }


def _setup(op_label: str, T: int, d: int, r_or_N: int, seed: int, stream: int):
    """Build seeded inputs and return the thunk to time."""
    rng = make_rng(seed, stream)
    if op_label == "softmax_attention":
        qkv = _random_qkv(rng, T, d)
        return lambda: softmax_attention(qkv)
    draw, fast, _ = _mixer_kinds()[op_label.split("_")[0]]
    params, x = draw(rng, T, d, r_or_N)
    return lambda: fast(params, x)


def time_operation(
    op_label: str,
    T_values: Sequence[int],
    d: int,
    r_or_N: int,
    repeats: int,
    seed: int,
) -> list:
    """Time one operation across ascending sequence lengths.

    Seeded inputs for every length (untimed), then a warmup round whose
    times are dropped and ``repeats`` timed rounds, each over all lengths,
    so that a slow spell of the host hits every length alike; each
    length's median is recorded.
    """
    if op_label not in OP_LABELS:
        raise ValueError(f"unknown op_label {op_label!r}; expected one of {OP_LABELS}")
    ts = list(T_values)
    if any(not _is_int(t) or t < 1 for t in ts):
        raise ValueError(f"T_values entries must be positive integers, got {ts!r}")
    if len(ts) < 3:
        raise ValueError(f"need at least 3 sequence lengths, got {len(ts)}")
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError(f"T_values must be strictly ascending, got {ts}")
    _check_int("repeats", repeats, 3)
    thunks = [_setup(op_label, T, d, r_or_N, seed, ti) for ti, T in enumerate(ts)]
    times = [[] for _ in ts]
    for _ in range(1 + repeats):  # the first round is the warmup
        for thunk, row in zip(thunks, times):
            start = time.perf_counter()
            thunk()
            row.append(time.perf_counter() - start)
    return [
        BenchSample(op_label, T, d, r_or_N, float(median(row[1:])), repeats)
        for T, row in zip(ts, times)
    ]


def fit_loglog_slope(samples: Sequence[BenchSample]) -> ScalingReport:
    """Least-squares slope of log time against log T, with R^2.

    Needs at least 3 samples of one op with pairwise distinct T.
    """
    if len(samples) < 3:
        raise ValueError(f"need at least 3 samples, got {len(samples)}")
    labels = {s.op_label for s in samples}
    if len(labels) != 1:
        raise ValueError(f"samples mix op labels: {sorted(labels)}")
    ts = [s.T for s in samples]
    if len(set(ts)) != len(ts):
        raise ValueError("samples must have pairwise distinct T")
    x = np.log(np.array(ts, dtype=np.float64))
    y = np.log(np.array([s.wall_time for s in samples]))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid * resid))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res == 0.0 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    r2 = min(1.0, max(0.0, r2))
    return ScalingReport(
        op_label=samples[0].op_label,
        fitted_slope=float(slope),
        r_squared=r2,
        samples=tuple(samples),
    )


def write_bench_csv(path, samples: Sequence[BenchSample]) -> None:
    rows = [(s.op_label, s.T, s.d, s.r_or_N, s.wall_time, s.repeats) for s in samples]
    write_csv(path, ("op_label", "T", "d", "r_or_N", "median_seconds", "repeats"), rows)


def write_scaling_csv(path, reports: Sequence[ScalingReport]) -> None:
    rows = [(r.op_label, r.fitted_slope, r.r_squared) for r in reports]
    write_csv(path, ("op_label", "slope", "r_squared"), rows)
