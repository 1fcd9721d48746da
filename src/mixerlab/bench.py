"""Runtime scaling measurements and log-log slope fits.

Times the operational forms only (streamed attention, feature-space
linear attention, sequential scans), never materialized T x T matrices.
For each sequence length the inputs are generated from the seed outside
the timed region, one warmup run is discarded, and the median of the
timed repeats is recorded. A least-squares line through (log T,
log time) then estimates the empirical complexity exponent: ~2 for the
quadratic attention path, ~1 for the linear-time paths.

Measurements are single-threaded by contract: operations run strictly
one after another on the calling thread. Inputs are drawn like the
cases of ``mixerlab equiv``, through the same seeded-case helpers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from statistics import median
from typing import Callable, Sequence, Tuple

import numpy as np

from ._io import write_csv
from .attention import (
    QkvTriple,
    draw_orthogonal_features,
    favor_attention,
    softmax_attention,
)
from .mixer_core import _check_int, _is_int, _is_real
from .rng import derive_seed, make_rng
from .ssm import (
    BiMambaParams,
    HydraParams,
    ScanParams,
    bimamba_apply,
    bimamba_mixer,
    hydra_apply,
    hydra_mixer,
    ssm_mixer,
    ssm_scan,
)

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


def _scan_kind(kind: str):
    """(seeded parameter draw, recurrence, materialized mixer) of the scan
    kind ``ssm``, ``bimamba`` or ``hydra``. Built per call, so that wrappers
    installed on these module names see the calls."""
    draw = _random_scan_params
    return {
        "ssm": (draw, ssm_scan, ssm_mixer),
        "bimamba": (
            lambda rng, T, N: BiMambaParams(draw(rng, T, N), draw(rng, T, N)),
            bimamba_apply,
            bimamba_mixer,
        ),
        "hydra": (
            lambda rng, T, N: HydraParams(draw(rng, T, N), draw(rng, T, N), rng.standard_normal(T)),
            hydra_apply,
            hydra_mixer,
        ),
    }[kind]


def _setup(op_label: str, T: int, d: int, r_or_N: int, seed: int, stream: int):
    """Build seeded inputs and return the thunk to time."""
    rng = make_rng(seed, stream)
    if op_label in ("softmax_attention", "favor_attention"):
        qkv = _random_qkv(rng, T, d)
        if op_label == "softmax_attention":
            return lambda: softmax_attention(qkv)
        omega = draw_orthogonal_features(d, r_or_N, derive_seed(seed, stream, 1))
        return lambda: favor_attention(qkv, omega)
    draw, recurrence, _ = _scan_kind(op_label.removesuffix("_scan"))
    x = rng.standard_normal(T)
    params = draw(rng, T, r_or_N)
    return lambda: recurrence(params, x)


def time_operation(
    op_label: str,
    T_values: Sequence[int],
    d: int,
    r_or_N: int,
    repeats: int,
    seed: int,
) -> list:
    """Time one operation across ascending sequence lengths.

    Per length: seeded input generation (untimed), one warmup run
    (untimed), then ``repeats`` timed runs whose median is recorded.
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
    samples = []
    for ti, T in enumerate(ts):
        thunk = _setup(op_label, T, d, r_or_N, seed, ti)
        thunk()
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            thunk()
            times.append(time.perf_counter() - start)
        samples.append(
            BenchSample(
                op_label=op_label,
                T=T,
                d=d,
                r_or_N=r_or_N,
                wall_time=float(median(times)),
                repeats=repeats,
            )
        )
    return samples


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
