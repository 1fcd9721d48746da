"""Command-line entry point: equivalence gates, diagnostics, scaling
benchmarks, and a block-stack demo, all reproducible from one seed.

Subcommands
    equiv      scan-vs-materialized-mixer equivalence suites; exit 1 on
               any failure at the configured tolerance
    diagnose   rank / row-distance / locality reports for softmax and
               random-feature maps, to CSV
    bench      runtime scaling sweep and log-log slope fit, to CSV
    demo       initialize a block stack, run it on random input, write
               per-block norms, an output checksum, and the weights

Configuration is a flat ``key = value`` text file (``#`` starts a
comment); every key can be overridden with a ``--key value`` flag, and
flags win. ``--out`` (or, when absent, the MIXERLAB_OUT environment
variable) picks the output directory. All randomness comes from
counter-based Philox streams derived from the single 64-bit seed, so
every command's output files are byte-identical across runs with the
same seed and config, wall-clock timings in bench.csv excepted.

Exit codes: 0 success, 1 equivalence failure, 2 usage or config error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

from ._io import write_csv
from .attention import MultiHeadConfig, draw_orthogonal_features, favor_mixer, softmax_mixer
from .bench import OP_LABELS, fit_loglog_slope, time_operation, write_bench_csv, write_scaling_csv
from .bench import _mixer_kinds
from .blocks import (
    BlockStackConfig,
    block_forward,
    init_stack,
    save_tensors,
    load_tensors,
    stack_to_tensors,
    with_zeroed_projections,
)
from .diagnostics import (
    approximation_error_curve,
    build_mixer_report,
    head_average,
    numerical_rank,
    write_approx_curve,
    write_l2_hist,
    write_locality,
    write_rank_report,
)
from .mixer_core import FeatureSequence, _check_int, _check_tol, _is_int, apply_mixer
from .rng import derive_seed, make_rng

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config_file",
    "cmd_equiv",
    "cmd_diagnose",
    "cmd_bench",
    "cmd_demo",
    "main",
]

class ConfigError(ValueError):
    """Malformed configuration file, key, or value."""


@dataclass(frozen=True)
class RunConfig:
    """Everything a subcommand needs, resolvable from file plus flags.

    ``preset`` forces d_model/num_blocks to the named stack shape.
    ``r`` is the feature count used by diagnose/demo; ``bench_r`` the
    one used by the bench sweep. ``tol`` gates the equiv suites.
    Values are checked by the library rules they feed, as ConfigError.
    """

    seed: int = 42
    T: int = 64
    d_model: int = 64
    num_heads: int = 4
    r: int = 16
    N: int = 16
    kernel_size: int = 7
    dilation_period: int = 4
    num_blocks: int = 8
    mixer_kind: str = "hydra"
    output_dir: str = "."
    preset: Optional[str] = None
    tol: float = 1e-9
    cases: int = 200
    bins: int = 50
    approx_seeds: int = 32
    r_values: Tuple[int, ...] = (16, 64, 256, 1024)
    t_values: Tuple[int, ...] = (4096, 8192, 16384, 32768, 65536)
    repeats: int = 3
    bench_r: int = 256
    qk_dump: Optional[str] = None
    zero_weights: bool = False

    def __post_init__(self) -> None:
        try:
            if self.preset is not None:
                shape = BlockStackConfig.preset(self.preset)
                object.__setattr__(self, "d_model", shape.d_model)
                object.__setattr__(self, "num_blocks", shape.num_blocks)
            if not _is_int(self.seed) or not 0 <= self.seed < 2**64:
                raise ValueError(f"seed must be a 64-bit nonnegative integer, got {self.seed!r}")
            for f in fields(self):
                if type(f.default) is int and f.name != "seed":
                    _check_int(f.name, getattr(self, f.name))
            self.stack_config()  # refuses an unknown mixer_kind
            _check_tol(self.tol)
            for name in ("r_values", "t_values"):
                vals = getattr(self, name)
                if not isinstance(vals, tuple) or len(vals) == 0:
                    raise ValueError(f"{name} must be a nonempty tuple of integers")
                for i, v in enumerate(vals):
                    _check_int(f"{name}[{i}]", v)
            if not isinstance(self.output_dir, str) or not self.output_dir:
                raise ValueError(f"output_dir must be a nonempty path, got {self.output_dir!r}")
            if self.qk_dump is not None and not (isinstance(self.qk_dump, str) and self.qk_dump):
                raise ValueError(f"qk_dump must be a path, got {self.qk_dump!r}")
            if not isinstance(self.zero_weights, bool):
                raise ValueError(f"zero_weights must be a boolean, got {self.zero_weights!r}")
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def stack_config(self) -> BlockStackConfig:
        """The stack ``demo`` builds, checked by :class:`BlockStackConfig`:
        ``r`` is its feature count and ``N`` its state size."""
        return BlockStackConfig(
            self.d_model, self.num_blocks, self.dilation_period, self.kernel_size,
            self.mixer_kind, self.num_heads, self.r, self.N,
        )


# each key's type is its default's: int, float, tuple of ints, bool, or
# str, where a None default also accepts "none"
_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}
_FIELD_NAMES = tuple(_DEFAULTS)


def _parse_value(name: str, text: str):
    text = text.strip()
    default = _DEFAULTS[name]
    try:
        if type(default) is int:
            return int(text, 0)
        if type(default) is float:
            return float(text)
        if type(default) is tuple:
            parts = [p.strip() for p in text.split(",") if p.strip()]
            if not parts:
                raise ValueError("empty list")
            return tuple(int(p, 0) for p in parts)
        if type(default) is bool:
            low = text.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {text!r}")
        if default is None and text.lower() == "none":
            return None
        return text
    except ValueError as e:
        raise ConfigError(f"bad value for {name}: {e}") from None


def parse_config_file(path) -> dict:
    """Read a flat key = value config file into raw string values."""
    raw = Path(path).read_text(encoding="utf-8")
    out = {}
    for lineno, line in enumerate(raw.splitlines(), start=1):
        if "#" in line:
            line = line[: line.index("#")]
        line = line.strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _FIELD_NAMES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = value.strip()
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixerlab",
        description="Sequence-mixer equivalence gates, diagnostics, and benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", metavar="{equiv,diagnose,bench,demo}")
    helps = {
        "equiv": "run scan-vs-mixer equivalence suites (exit 1 on failure)",
        "diagnose": "emit rank/histogram/locality/approximation CSV reports",
        "bench": "measure runtime scaling and fit log-log slopes",
        "demo": "initialize a block stack, run it, write norms + weights",
    }
    for name, help_text in helps.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="flat key = value config file")
        p.add_argument("--out", metavar="DIR", help="output directory (wins over config and MIXERLAB_OUT)")
        for fname in _FIELD_NAMES:
            p.add_argument(f"--{fname}", metavar="VALUE", help=argparse.SUPPRESS)
    return parser


def resolve_config(ns: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file, environment, and flags (flags win)."""
    raw = {}
    if ns.config:
        raw.update(parse_config_file(ns.config))
    for fname in _FIELD_NAMES:
        v = getattr(ns, fname, None)
        if v is not None:
            raw[fname] = v
    if ns.out is not None:
        raw["output_dir"] = ns.out
    elif "output_dir" not in raw:
        env = os.environ.get("MIXERLAB_OUT")
        if env:
            raw["output_dir"] = env
    return RunConfig(**{k: _parse_value(k, v) for k, v in raw.items()})


def _out_path(cfg: RunConfig, name: str) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _equiv_case_err(kind: str, rng: np.random.Generator, force_T: Optional[int]) -> float:
    draw, fast, matrix = _mixer_kinds()[kind]
    params, x = draw(rng, force_T, None, None)
    xs = x.reshape(len(x), -1)
    via_mixer = apply_mixer(matrix(params), FeatureSequence(xs)).data
    return float(np.max(np.abs(fast(params, x).reshape(xs.shape) - via_mixer)))


def cmd_equiv(cfg: RunConfig) -> int:
    """Scan-vs-materialized equivalence over seeded random instances.

    Four suites (ssm, bimamba, hydra, favor), ``cases`` instances each;
    the first instance of each suite is forced to T = 1 so the
    degenerate edge is always covered. Writes equiv.csv and returns 1
    if any suite's max error exceeds the tolerance.
    """
    rows = []
    all_pass = True
    for si, kind in enumerate(_mixer_kinds()):
        rng = make_rng(cfg.seed, 10 + si)
        max_err = 0.0
        for case in range(cfg.cases):
            err = _equiv_case_err(kind, rng, force_T=1 if case == 0 else None)
            max_err = max(max_err, err)
        ok = max_err <= cfg.tol
        all_pass = all_pass and ok
        rows.append((kind, max_err, ok))
        print(f"[{kind}] cases={cfg.cases} max_abs_err={max_err:.3e} "
              f"{'PASS' if ok else 'FAIL'} (tol {cfg.tol:g})")
    write_csv(_out_path(cfg, "equiv.csv"), ("case", "max_abs_err", "pass"), rows)
    return 0 if all_pass else 1


def _diagnose_heads(cfg: RunConfig):
    """Per-head (q, k) pairs: seeded random, or a single user dump."""
    if cfg.qk_dump is not None:
        tensors = load_tensors(cfg.qk_dump)
        for name in ("q", "k"):
            if name not in tensors:
                raise ConfigError(f"{cfg.qk_dump}: dump must contain tensor {name!r}")
        for name in tensors:
            if name not in ("q", "k"):
                raise ConfigError(f"{cfg.qk_dump}: dump must hold only q and k, got {name!r}")
        return [(tensors["q"], tensors["k"])]
    d_head = MultiHeadConfig(cfg.d_model, cfg.num_heads).d_head
    scale = 1.0 / np.sqrt(d_head)
    pairs = []
    for h in range(cfg.num_heads):
        rng = make_rng(cfg.seed, 2, h)
        pairs.append(
            (
                rng.standard_normal((cfg.T, d_head)) * scale,
                rng.standard_normal((cfg.T, d_head)) * scale,
            )
        )
    return pairs


def _ranked_maps(pairs, build, ranks):
    """Yield ``build(h, q, k)`` for each head, appending its numerical
    rank to ``ranks`` first; no map is kept once the next is asked for."""
    for h, (q, k) in enumerate(pairs):
        mx = build(h, q, k)
        ranks.append(numerical_rank(mx))
        yield mx
        del mx


def cmd_diagnose(cfg: RunConfig) -> int:
    """Rank, row-distance, locality, and approximation reports as CSV.

    Builds softmax and random-feature maps per head from seeded Q, K
    (or one user-supplied Q/K dump), plus their head averages, and
    writes rank_report.csv, l2_hist.csv, locality.csv, approx_curve.csv.
    """
    pairs = _diagnose_heads(cfg)
    kinds = (
        ("softmax", None, lambda h, q, k: softmax_mixer(q, k)),
        ("favor", cfg.r, lambda h, q, k: favor_mixer(
            q, k, draw_orthogonal_features(q.shape[1], cfg.r, derive_seed(cfg.seed, 3, h)))),
    )
    head_rows, mean_rows, reports = [], [], []
    # one kind at a time, one head at a time: each map is ranked and
    # summed into its mean as it is built, and each mean is dropped once
    # its report is made, so memory does not grow with num_heads
    for kind, r, build in kinds:
        ranks = []
        mean = head_average(_ranked_maps(pairs, build, ranks))
        head_rows.append([(kind, r, rank) for rank in ranks])
        mean_rows.append((f"{kind}_mean", r, numerical_rank(mean)))
        reports.append((kind, build_mixer_report(mean, kind, bins=cfg.bins)))
        del mean
    # softmax_mixer has checked every q and k by now
    T, d_head = pairs[0][0].shape
    # softmax h, favor h for each head, then the two means
    rows = [row for pair in zip(*head_rows) for row in pair] + mean_rows
    rank_rows = [(kind, T, d_head, r, rank) for kind, r, rank in rows]
    write_rank_report(_out_path(cfg, "rank_report.csv"), rank_rows)
    write_l2_hist(
        _out_path(cfg, "l2_hist.csv"), [(label, rep.l2_histogram) for label, rep in reports]
    )
    write_locality(_out_path(cfg, "locality.csv"), reports)

    q0, k0 = pairs[0]
    curve = approximation_error_curve(
        q0,
        k0,
        cfg.r_values,
        [derive_seed(cfg.seed, 4, i) for i in range(cfg.approx_seeds)],
    )
    write_approx_curve(_out_path(cfg, "approx_curve.csv"), curve)

    for kind, _, d_or_n, r, rank in rank_rows:
        r_part = "" if r is None else f" r={r}"
        print(f"[{kind}] T={T} d={d_or_n}{r_part} rank={rank}")
    return 0


def cmd_bench(cfg: RunConfig) -> int:
    """Scaling sweep over t_values for every operation, with slope fits.

    Writes bench.csv (per-size medians) and scaling.csv (per-op slope
    and R^2). Attention ops run at width d_model; scans are per-channel
    ops and run on a single channel with state size N.
    """
    all_samples = []
    reports = []
    for label in OP_LABELS:
        if label == "softmax_attention":
            d, r_or_n = cfg.d_model, 0
        elif label == "favor_attention":
            d, r_or_n = cfg.d_model, cfg.bench_r
        else:
            d, r_or_n = 1, cfg.N
        samples = time_operation(
            label, cfg.t_values, d=d, r_or_N=r_or_n, repeats=cfg.repeats, seed=cfg.seed
        )
        all_samples.extend(samples)
        report = fit_loglog_slope(samples)
        reports.append(report)
        print(f"[{label}] slope={report.fitted_slope:.3f} r_squared={report.r_squared:.4f}")
    write_bench_csv(_out_path(cfg, "bench.csv"), all_samples)
    write_scaling_csv(_out_path(cfg, "scaling.csv"), reports)
    return 0


def cmd_demo(cfg: RunConfig) -> int:
    """Initialize a stack, run it on seeded input, write norms + weights.

    demo.csv rows: per-block output Frobenius norms (with the dilation
    schedule) and the sha256 checksum of the final output buffer. The
    stack weights go to demo_weights.bin in the container format. With
    ``zero_weights`` every stage projection is zeroed, so each block
    reduces to layer_norm of its input.
    """
    stack_cfg = cfg.stack_config()
    blocks = init_stack(stack_cfg, cfg.seed)
    if cfg.zero_weights:
        blocks = tuple(with_zeroed_projections(b) for b in blocks)

    x = FeatureSequence(make_rng(cfg.seed, 5).standard_normal((cfg.T, cfg.d_model)))
    rows = []
    y = x
    for i, block in enumerate(blocks):
        y = block_forward(y, block)
        dilation = block.conv.dilation
        # numpy's pairwise sum, not np.linalg.norm's BLAS dot, whose
        # rounding follows the BLAS thread count
        norm = np.sqrt(np.sum(y.data * y.data))
        rows.append(("block_norm", i, dilation, float(norm)))
    checksum = hashlib.sha256(np.ascontiguousarray(y.data).tobytes()).hexdigest()
    rows.append(("checksum", None, None, checksum))
    write_csv(_out_path(cfg, "demo.csv"), ("record", "block", "dilation", "value"), rows)
    save_tensors(_out_path(cfg, "demo_weights.bin"), stack_to_tensors(blocks))
    print(f"dilations: {list(stack_cfg.dilations())}")
    print(f"checksum: {checksum}")
    return 0


_COMMANDS = {
    "equiv": cmd_equiv,
    "diagnose": cmd_diagnose,
    "bench": cmd_bench,
    "demo": cmd_demo,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        if not ns.command:
            parser.print_usage(sys.stderr)
            return 2
        return _COMMANDS[ns.command](resolve_config(ns))
    except SystemExit as e:
        # argparse exits 0 for --help and 2 on a usage error
        return 0 if e.code in (None, 0) else 2
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
