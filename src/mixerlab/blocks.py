"""Backbone block: FFW, pluggable mixer, dilated depthwise conv, FFW.

One block applies, with a full residual around every stage and a single
LayerNorm on the output:

    y1 = x  + ffw_in(x)
    y2 = y1 + mixer(y1)
    y3 = y2 + silu(conv(y2))
    y4 = y3 + ffw_out(y3)
    out = layer_norm(y4)

The mixer stage is one of two config types, attention or scan, so the
same surrounding weights can host any of the four kinds (hydra, bimamba,
favor, softmax). Each config derives its kind from what it holds: an
attention stage is favor exactly when it holds feature matrices, and a
scan stage is hydra exactly when it holds a diagonal gain.
Every mixer kind ends in a d x d output projection; zeroing all the
stage output projections turns the block into layer_norm exactly, which
is the contract the tests pin down.

The activation (sigmoid-weighted linear unit) lives inside the FFW
between its two linear maps and is applied to the conv output inside
the block; the conv operation itself is plain cross-correlation so a
centered delta kernel is an exact identity.

Stacks double the conv dilation every ``dilation_period`` blocks. Two
named stack shapes are built in: ``latent-denoiser`` (8 blocks, 256
channels) and ``token-generator`` (12 blocks, 512 channels), both with
period 4 and kernel size 7 by default.

A block is a fixed set of named float64 tensors. :func:`init_stack`
draws them and :func:`stack_from_tensors` reads them from the flat binary
container of :func:`save_tensors`; one block builder turns either into
blocks, and loading refuses a tensor it does not read or a stack that
does not match its config. A container must be a seekable file, not a pipe.
"""

from __future__ import annotations

import math
import os
from dataclasses import KW_ONLY, dataclass, replace
from pathlib import Path
from typing import Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .attention import (
    MhaWeights,
    MultiHeadConfig,
    OrthogonalFeatureMatrix,
    RopeConfig,
    _check_attention_args,
    draw_orthogonal_features,
    multi_head_attention,
)
from .mixer_core import FeatureSequence, ShapeError, _as_float_array, _check_int, _freeze, _Fresh
from .mixer_core import _Frozen, _real_array
from .rng import derive_seed, make_rng
from .ssm import SelectiveWeights, bimamba_channelwise, hydra_channelwise

__all__ = [
    "LAYER_NORM_EPS",
    "TENSOR_MAGIC",
    "MIXER_KINDS",
    "FfwWeights",
    "DilatedConvWeights",
    "AttentionMixerConfig",
    "ScanMixerConfig",
    "MixerConfig",
    "DcHydraBlock",
    "BlockStackConfig",
    "silu",
    "ffw_apply",
    "dilated_dw_conv",
    "dilation_for_block",
    "layer_norm_apply",
    "mixer_apply",
    "block_forward",
    "validate_stack",
    "stack_forward",
    "with_zeroed_projections",
    "init_stack",
    "stack_to_tensors",
    "stack_from_tensors",
    "save_tensors",
    "load_tensors",
]

LAYER_NORM_EPS = 1e-5
TENSOR_MAGIC = "MIXERLAB-TENSORS 1"
MIXER_KINDS = ("hydra", "bimamba", "favor", "softmax")

# rows per row block of ffw_apply; the last block takes the remainder, so
# every block has 256-511 rows (or all T) and moves no result bit
_SILU_ROWS = 256


def _sigmoid(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write sigmoid(x) = (1 + tanh(x / 2)) / 2 into ``out``, overflow-free."""
    np.multiply(0.5, x, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def silu(x):
    """Sigmoid-weighted linear unit, x * sigmoid(x), overflow-free."""
    x = np.asarray(x, dtype=np.float64)
    # one fresh array, updated in place; an explicit ``out`` keeps a 0-d
    # input an array, where ``0.5 * x`` would give a numpy scalar
    t = _sigmoid(x, np.empty_like(x))
    t *= x
    return t if t.ndim else t[()]


@dataclass(frozen=True)
class FfwWeights(_Frozen):
    """Position-wise feed-forward weights: d -> hidden -> d.

    The conventional hidden width is 4d (what :func:`init_stack` draws);
    any consistent hidden width is accepted.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self) -> None:
        w1, b1, w2, b2 = _freeze(self, w1=2, b1=1, w2=2, b2=1)
        d, h = w1.shape
        if b1.shape != (h,) or w2.shape != (h, d) or b2.shape != (d,):
            raise ShapeError(
                f"inconsistent ffw shapes: w1 {w1.shape}, b1 {b1.shape}, "
                f"w2 {w2.shape}, b2 {b2.shape}"
            )

    @property
    def d(self) -> int:
        return self.w1.shape[0]


def ffw_apply(x: FeatureSequence, w: FfwWeights) -> FeatureSequence:
    """Per-frame map ``silu(x @ w1 + b1) @ w2 + b2``.

    Runs both products, the hidden bias and SiLU on one block of rows at
    a time, through two reused (rows, hidden) scratch arrays, so besides
    its output it holds at most 2 * 511 hidden rows rather than all T.
    Every block but the last has ``_SILU_ROWS`` rows and the last takes
    the remainder, so no block is short enough to take another BLAS
    kernel path, and the bits are the unblocked expression's (the tests
    check each partition edge).
    """
    if x.d != w.d:
        raise ShapeError(f"sequence width {x.d} != ffw width {w.d}")
    T = x.T
    starts = range(0, max(T - _SILU_ROWS, 0) + 1, _SILU_ROWS)
    h = np.empty((T - starts[-1], w.w1.shape[1]))
    t = np.empty_like(h)
    out = np.empty((T, w.d))
    for lo, hi in zip(starts, [*starts[1:], T]):
        block = np.matmul(x.data[lo:hi], w.w1, out=h[: hi - lo])
        block += w.b1
        # the same ops as silu, and block *= t rounds as t *= block
        block *= _sigmoid(block, t[: hi - lo])
        np.matmul(block, w.w2, out=out[lo:hi])
    out += w.b2
    return FeatureSequence(_Fresh(out))


@dataclass(frozen=True)
class DilatedConvWeights(_Frozen):
    """Depthwise conv weights: one k-tap filter per channel, plus bias.

    ``kernel`` has shape (d, k); taps are spaced ``dilation`` frames
    apart around the center tap at index (k - 1) // 2.
    """

    kernel: np.ndarray
    dilation: int
    bias: np.ndarray

    def __post_init__(self) -> None:
        kernel, bias = _freeze(self, kernel=2, bias=1)
        if bias.shape[0] != kernel.shape[0]:
            raise ShapeError(
                f"bias has length {bias.shape[0]}, kernel has {kernel.shape[0]} channels"
            )
        _check_int("dilation", self.dilation)

    @property
    def d(self) -> int:
        return self.kernel.shape[0]

    @property
    def k(self) -> int:
        return self.kernel.shape[1]


def dilated_dw_conv(x: FeatureSequence, w: DilatedConvWeights) -> FeatureSequence:
    """Per-channel dilated convolution, zero-padded to the same length.

    Output frame t sums kernel[:, tap] * x[t + (tap - center) * dilation]
    over taps whose source frame exists; the receptive field spans
    (k - 1) * dilation + 1 frames. A centered delta kernel with zero
    bias is an exact identity.
    """
    if x.d != w.d:
        raise ShapeError(f"sequence width {x.d} != conv width {w.d}")
    data = x.data
    T = x.T
    center = (w.k - 1) // 2
    out = np.zeros_like(data)
    for tap in range(w.k):
        offset = (tap - center) * w.dilation
        t0 = max(0, -offset)
        t1 = min(T, T - offset)
        if t0 < t1:
            out[t0:t1] += data[t0 + offset : t1 + offset] * w.kernel[:, tap]
    out += w.bias
    return FeatureSequence(_Fresh(out))


def dilation_for_block(block_index: int, period: int) -> int:
    """Dilation schedule: doubles every ``period`` blocks, 2**(i // period)."""
    _check_int("block_index", block_index, 0)
    _check_int("period", period)
    return 2 ** (block_index // period)


def layer_norm_apply(x: FeatureSequence, scale, shift) -> FeatureSequence:
    """Per-frame normalization over the d channels, then affine scale+shift.

    Variance is the population variance; the epsilon sits inside the
    square root, so constant rows normalize to zero rather than failing.
    """
    scale = _as_float_array(scale, "scale", 1)
    shift = _as_float_array(shift, "shift", 1)
    if scale.shape[0] != x.d or shift.shape[0] != x.d:
        raise ShapeError(
            f"scale/shift lengths {scale.shape[0]}/{shift.shape[0]} != width {x.d}"
        )
    mu = x.data.mean(axis=1, keepdims=True)
    centered = x.data - mu
    var = np.mean(centered * centered, axis=1, keepdims=True)
    # divide, scale and shift in place: centered becomes the output
    centered /= np.sqrt(var + LAYER_NORM_EPS)
    centered *= scale
    centered += shift
    return FeatureSequence(_Fresh(centered))


@dataclass(frozen=True)
class AttentionMixerConfig:
    """Attention mixer stage: multi-head softmax or random-feature kind.

    ``omegas`` (one feature matrix per head) makes it kind "favor", and
    None kind "softmax". ``rope`` optionally rotates per-head queries and keys.
    """

    weights: MhaWeights
    head_config: MultiHeadConfig
    _: KW_ONLY
    rope: Optional[RopeConfig] = None
    omegas: Optional[Tuple[OrthogonalFeatureMatrix, ...]] = None

    def __post_init__(self) -> None:
        omegas = _check_attention_args(self.weights, self.head_config, self.rope, self.omegas)
        object.__setattr__(self, "omegas", omegas)

    @property
    def kind(self) -> str:
        return "softmax" if self.omegas is None else "favor"

    @property
    def d(self) -> int:
        return self.head_config.d_model


@dataclass(frozen=True)
class ScanMixerConfig(_Frozen):
    """Bidirectional scan stage with output projection.

    ``diag_gain`` (one gain per channel) makes it kind "hydra", the
    shift-combined scan pair plus a diagonal term, and None kind
    "bimamba", the addition-combined pair.
    """

    fwd: SelectiveWeights
    bwd: SelectiveWeights
    out_proj: np.ndarray
    diag_gain: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        (out,) = _freeze(self, out_proj=2)
        gain = None if self.diag_gain is None else _freeze(self, diag_gain=1)[0]
        if out.shape[0] != out.shape[1]:
            raise ShapeError(f"out_proj must be square, got {out.shape}")
        d = out.shape[0]
        if self.fwd.d != d or self.bwd.d != d:
            raise ShapeError(
                f"selective weights expect width {self.fwd.d}/{self.bwd.d}, out_proj is {d}x{d}"
            )
        if self.fwd.N != self.bwd.N:
            raise ShapeError(f"forward/backward state sizes differ: {self.fwd.N} vs {self.bwd.N}")
        if gain is not None and gain.shape[0] != d:
            raise ShapeError(f"diag_gain has length {gain.shape[0]}, expected {d}")

    @property
    def kind(self) -> str:
        return "bimamba" if self.diag_gain is None else "hydra"

    @property
    def d(self) -> int:
        return self.out_proj.shape[0]


MixerConfig = Union[AttentionMixerConfig, ScanMixerConfig]


# Tensor names of each block part in container order; all but the norm's
# are also the fields that hold the tensors. The draw, the block builder
# and stack_to_tensors spell every name through these.
_FFW = ("w1", "b1", "w2", "b2")
_MHA = ("wq", "wk", "wv", "wo")
_SELECTIVE = ("w_delta", "bias", "w_b", "w_c", "a_log")
_SCAN_TAIL = {"hydra": ("diag_gain", "out_proj"), "bimamba": ("out_proj",)}
_CONV = ("kernel", "bias")
_NORM = ("scale", "shift")


def mixer_apply(x: FeatureSequence, config: MixerConfig) -> FeatureSequence:
    """Run the configured mixer stage on a sequence, width preserved."""
    if isinstance(config, AttentionMixerConfig):
        return multi_head_attention(
            x, config.weights, config.head_config, rope=config.rope, omegas=config.omegas
        )
    if isinstance(config, ScanMixerConfig):
        if config.diag_gain is None:
            mixed = bimamba_channelwise(x, config.fwd, config.bwd)
        else:
            mixed = hydra_channelwise(x, config.fwd, config.bwd, config.diag_gain)
        return FeatureSequence(_Fresh(mixed.data @ config.out_proj))
    raise TypeError(f"not a mixer config: {type(config).__name__}")


@dataclass(frozen=True)
class DcHydraBlock(_Frozen):
    """One backbone block; all component widths must agree, and the mixer
    must be an attention or scan config (else TypeError)."""

    ffw_in: FfwWeights
    mixer_config: MixerConfig
    conv: DilatedConvWeights
    ffw_out: FfwWeights
    norm_scale: np.ndarray
    norm_shift: np.ndarray

    def __post_init__(self) -> None:
        if not isinstance(self.mixer_config, (AttentionMixerConfig, ScanMixerConfig)):
            raise TypeError(f"not a mixer config: {type(self.mixer_config).__name__}")
        scale, shift = _freeze(self, norm_scale=1, norm_shift=1)
        widths = {
            "ffw_in": self.ffw_in.d,
            "mixer": self.mixer_config.d,
            "conv": self.conv.d,
            "ffw_out": self.ffw_out.d,
            "norm_scale": scale.shape[0],
            "norm_shift": shift.shape[0],
        }
        if len(set(widths.values())) != 1:
            raise ShapeError(f"block widths disagree: {widths}")

    @property
    def d(self) -> int:
        return self.ffw_in.d


def block_forward(x: FeatureSequence, block: DcHydraBlock) -> FeatureSequence:
    """Apply one block: see the module docstring for the stage order."""
    if x.d != block.d:
        raise ShapeError(f"sequence width {x.d} != block width {block.d}")
    # each residual sum is a fresh array, adopted by the next stage's input
    y = x.data + ffw_apply(x, block.ffw_in).data
    y = y + mixer_apply(FeatureSequence(_Fresh(y)), block.mixer_config).data
    y = y + silu(dilated_dw_conv(FeatureSequence(_Fresh(y)), block.conv).data)
    y = y + ffw_apply(FeatureSequence(_Fresh(y)), block.ffw_out).data
    return layer_norm_apply(FeatureSequence(_Fresh(y)), block.norm_scale, block.norm_shift)


@dataclass(frozen=True)
class BlockStackConfig:
    """Stack shape: width, depth, dilation schedule, kernel, and the hosted
    mixer's kind and sizes: ``num_heads`` and (favor) ``feature_count`` for
    attention, whose heads get ``RopeConfig(d_head)`` exactly when d_head
    is even, and ``state_size`` for the scans."""

    d_model: int
    num_blocks: int
    dilation_period: int = 4
    kernel_size: int = 7
    mixer_kind: str = "hydra"
    num_heads: int = 4
    feature_count: int = 64
    state_size: int = 16

    _PRESETS = {
        "latent-denoiser": (256, 8),
        "token-generator": (512, 12),
    }

    def __post_init__(self) -> None:
        for name in ("d_model", "num_blocks", "dilation_period", "kernel_size",
                     "num_heads", "feature_count", "state_size"):
            _check_int(name, getattr(self, name))
        if self.mixer_kind not in MIXER_KINDS:
            raise ValueError(
                f"mixer_kind must be one of {MIXER_KINDS}, got {self.mixer_kind!r}"
            )

    @classmethod
    def preset(cls, name: str, **rest) -> "BlockStackConfig":
        """Named stack shapes: 'latent-denoiser' (8 blocks at width 256)
        and 'token-generator' (12 blocks at width 512). Keywords set the
        other fields (mixer_kind, dilation_period, kernel_size, the mixer
        sizes); the rest keep their dataclass defaults."""
        if name not in cls._PRESETS:
            raise ValueError(
                f"unknown preset {name!r}; expected one of {sorted(cls._PRESETS)}"
            )
        d_model, num_blocks = cls._PRESETS[name]
        return cls(d_model=d_model, num_blocks=num_blocks, **rest)

    def dilations(self) -> Tuple[int, ...]:
        return tuple(
            dilation_for_block(i, self.dilation_period) for i in range(self.num_blocks)
        )


def validate_stack(cfg: BlockStackConfig, blocks: Sequence[DcHydraBlock]) -> None:
    """Check a block list against a stack config.

    Verifies block count, widths, mixer kinds, kernel sizes, that block
    i's conv dilation equals the schedule value 2**(i // period), and the
    mixer sizes: head count and feature count, or state size.
    """
    if len(blocks) != cfg.num_blocks:
        raise ValueError(f"config says {cfg.num_blocks} blocks, got {len(blocks)}")
    for i, block in enumerate(blocks):
        if block.d != cfg.d_model:
            raise ShapeError(f"block {i} width {block.d} != d_model {cfg.d_model}")
        mc = block.mixer_config
        # the kind is checked first: it decides which sizes the block has
        checks = [("mixer_kind", mc.kind), ("kernel_size", block.conv.k)]
        if isinstance(mc, AttentionMixerConfig):
            checks.append(("num_heads", mc.head_config.num_heads))
            checks += [("feature_count", om.r) for om in mc.omegas or ()]
        else:
            checks.append(("state_size", mc.fwd.N))
        for name, got in checks:
            want = getattr(cfg, name)
            if got != want:
                raise ValueError(f"block {i} {name} {got!r} != config {want!r}")
        want = dilation_for_block(i, cfg.dilation_period)
        if block.conv.dilation != want:
            raise ValueError(
                f"block {i} dilation {block.conv.dilation} != schedule value {want}"
            )


def stack_forward(
    x: FeatureSequence, cfg: BlockStackConfig, blocks: Sequence[DcHydraBlock]
) -> FeatureSequence:
    """Apply the whole stack in order after validating it against cfg."""
    validate_stack(cfg, blocks)
    y = x
    for block in blocks:
        y = block_forward(y, block)
    return y


def with_zeroed_projections(block: DcHydraBlock) -> DcHydraBlock:
    """Zero every stage's final projection (and the conv entirely).

    The resulting block computes layer_norm(x) exactly; used to pin the
    residual wiring down in tests and the demo.
    """

    def zeroed(obj, *names):
        return replace(obj, **{n: _Fresh(np.zeros_like(getattr(obj, n))) for n in names})

    mc = block.mixer_config
    if isinstance(mc, AttentionMixerConfig):
        mc = replace(mc, weights=zeroed(mc.weights, "wo"))
    else:
        mc = zeroed(mc, "out_proj")
    return replace(block, ffw_in=zeroed(block.ffw_in, "w2", "b2"), mixer_config=mc,
                   conv=zeroed(block.conv, "kernel", "bias"),
                   ffw_out=zeroed(block.ffw_out, "w2", "b2"))


def _omega_names(num_heads: int) -> Tuple[str, ...]:
    return tuple(f"head{h:02d}.omega" for h in range(num_heads))


def _draw_omegas(cfg: BlockStackConfig, seed: int, i: int):
    """Block i's favor feature matrices, one per head from the children of
    ``derive_seed(seed, i, 1)``; None for the other kinds."""
    if cfg.mixer_kind != "favor":
        return None
    d_head = MultiHeadConfig(cfg.d_model, cfg.num_heads).d_head
    omega_seed = derive_seed(seed, i, 1)
    return tuple(
        draw_orthogonal_features(d_head, cfg.feature_count, derive_seed(omega_seed, h))
        for h in range(cfg.num_heads)
    )


def _named(i: int, parts) -> dict:
    """Block i's ``(part, names, values)`` triples as one name -> tensor dict."""
    return {
        f"block{i:02d}.{part}.{name}": np.atleast_1d(value)
        for part, names, values in parts
        for name, value in zip(names, values, strict=True)
    }


def _draw_block(cfg: BlockStackConfig, seed: int, i: int, omegas) -> dict:
    """Block i's initial tensors by container name, with the feature
    matrices ``omegas`` for favor; stream (i, 0) is drawn in the order
    ffw_in, mixer, conv kernel, ffw_out."""
    d, k, kind, n = cfg.d_model, cfg.kernel_size, cfg.mixer_kind, cfg.state_size
    normal = make_rng(seed, i, 0).standard_normal
    scale = 1.0 / np.sqrt(d)

    def ffw():
        w1 = normal((d, 4 * d)) / np.sqrt(d)
        return w1, np.zeros(4 * d), normal((4 * d, d)) / np.sqrt(4 * d), np.zeros(d)

    def selective():
        w_delta = normal(d) * scale
        return w_delta, 0.0, normal((n, d)) * scale, normal((n, d)) * scale, 0.0

    parts = [("ffw_in", _FFW, ffw())]
    if kind in ("softmax", "favor"):
        parts.append(("mixer", _MHA, [normal((d, d)) * scale for _ in _MHA]))
        if kind == "favor":
            parts.append(("mixer", _omega_names(cfg.num_heads), [om.omega for om in omegas]))
    else:
        parts += [(f"mixer.{side}", _SELECTIVE, selective()) for side in ("fwd", "bwd")]
        out_proj = normal((d, d)) / np.sqrt(d)
        tail = (np.ones(d), out_proj) if kind == "hydra" else (out_proj,)
        parts.append(("mixer", _SCAN_TAIL[kind], tail))
    parts.append(("conv", _CONV, (normal((d, k)) / np.sqrt(k), np.zeros(d))))
    parts.append(("ffw_out", _FFW, ffw()))
    parts.append(("norm", _NORM, (np.ones(d), np.zeros(d))))
    return _named(i, parts)


def _build_block(
    cfg: BlockStackConfig, i: int, tensors, omegas, read: set, fresh: bool
) -> DcHydraBlock:
    """Block i of a ``cfg`` stack from named tensors, adopted when ``fresh``
    (see :class:`_Fresh`); stored favor feature matrices must equal
    ``omegas`` bit for bit. Adds to ``read`` each name it takes."""
    own = _Fresh if fresh else np.asarray

    def take(part, names):
        keys = [f"block{i:02d}.{part}.{n}" for n in names]
        read.update(keys)
        try:
            return [np.asarray(tensors[key]) for key in keys]
        except KeyError as exc:
            raise ValueError(f"container is missing tensor {exc.args[0]!r}") from None

    kind = cfg.mixer_kind
    if kind in ("softmax", "favor"):
        heads = MultiHeadConfig(d_model=cfg.d_model, num_heads=cfg.num_heads)
        if kind == "favor":
            names = _omega_names(cfg.num_heads)
            for name, om, stored in zip(names, omegas, take("mixer", names)):
                if not np.array_equal(om.omega, stored):
                    raise ValueError(
                        f"stored feature matrix block{i:02d}.mixer.{name} does not match "
                        f"its seed and feature_count; wrong seed or config for this container?"
                    )
        rope = RopeConfig(heads.d_head) if heads.d_head % 2 == 0 else None
        weights = MhaWeights(*map(own, take("mixer", _MHA)))
        mixer = AttentionMixerConfig(weights, heads, rope=rope, omegas=omegas)
    else:
        sides = (take(f"mixer.{side}", _SELECTIVE) for side in ("fwd", "bwd"))
        fwd, bwd = (SelectiveWeights(own(w), b.item(), own(wb), own(wc), a.item())
                    for w, b, wb, wc, a in sides)
        names = _SCAN_TAIL[kind]
        mixer = ScanMixerConfig(fwd, bwd, **dict(zip(names, map(own, take("mixer", names)))))
    kernel, bias = map(own, take("conv", _CONV))
    conv = DilatedConvWeights(kernel, dilation_for_block(i, cfg.dilation_period), bias)
    ffw_in, ffw_out = (FfwWeights(*map(own, take(part, _FFW))) for part in ("ffw_in", "ffw_out"))
    return DcHydraBlock(ffw_in, mixer, conv, ffw_out, *map(own, take("norm", _NORM)))


def _build_stack(cfg: BlockStackConfig, seed: int, block_tensors, fresh: bool):
    """Build a ``cfg`` stack block by block from ``block_tensors(i, omegas)``,
    adopted when ``fresh``, where ``omegas`` are block i's feature matrices
    as drawn from ``seed``. A tensor that no block reads raises ValueError
    naming the first one, and the blocks must pass :func:`validate_stack`."""
    offered, read, blocks = {}, set(), []
    for i in range(cfg.num_blocks):
        omegas = _draw_omegas(cfg, seed, i)
        tensors = block_tensors(i, omegas)
        offered.update(dict.fromkeys(tensors))
        blocks.append(_build_block(cfg, i, tensors, omegas, read, fresh))
    unread = [name for name in offered if name not in read]
    if unread:
        raise ValueError(
            f"tensor {unread[0]!r} is not part of a {cfg.num_blocks}-block "
            f"{cfg.mixer_kind} stack"
        )
    validate_stack(cfg, blocks)
    return tuple(blocks)


def init_stack(cfg: BlockStackConfig, seed: int) -> Tuple[DcHydraBlock, ...]:
    """Randomly initialize a whole ``cfg`` stack, reproducibly from one seed.

    Block i draws from stream (i, 0) of the seed; favor feature
    matrices use child seeds on stream (i, 1), each drawn once. LayerNorm
    starts at scale 1, shift 0. Each block is drawn as named tensors and
    built by the same code as :func:`stack_from_tensors`, one block at a
    time, so favor feature matrices pass the loader's seed check too.
    """

    # the drawn tensors are this call's own, so the blocks adopt them
    return _build_stack(cfg, seed, lambda i, omegas: _draw_block(cfg, seed, i, omegas), True)


def stack_to_tensors(blocks: Sequence[DcHydraBlock]) -> dict:
    """Flatten a stack's weights to an ordered name -> tensor mapping."""

    def part(name, obj, fields):
        return name, fields, [getattr(obj, f) for f in fields]

    out = {}
    for i, block in enumerate(blocks):
        mc = block.mixer_config
        if isinstance(mc, AttentionMixerConfig):
            omegas = [om.omega for om in mc.omegas or ()]
            mixer = [part("mixer", mc.weights, _MHA)]
            mixer.append(("mixer", _omega_names(len(omegas)), omegas))
        else:
            mixer = [part(f"mixer.{s}", getattr(mc, s), _SELECTIVE) for s in ("fwd", "bwd")]
            mixer.append(part("mixer", mc, _SCAN_TAIL[mc.kind]))
        out.update(_named(i, [
            part("ffw_in", block.ffw_in, _FFW),
            part("ffw_out", block.ffw_out, _FFW),
            *mixer,
            part("conv", block.conv, _CONV),
            ("norm", _NORM, (block.norm_scale, block.norm_shift)),
        ]))
    return out


def stack_from_tensors(
    cfg: BlockStackConfig, tensors: Mapping[str, np.ndarray], seed: int
) -> Tuple[DcHydraBlock, ...]:
    """Rebuild a stack from a tensor container written by this package.

    Structural facts (kinds, sizes, dilations, rope) come from ``cfg``;
    numeric weights come from ``tensors``, through the block builder
    :func:`init_stack` uses. Favor feature matrices are re-drawn from the
    child seeds :func:`init_stack` used and must equal the stored copies
    bit for bit, so ``seed`` and ``feature_count`` must be the stack's
    own. The container must fit ``cfg`` exactly: a missing or unread
    tensor, or blocks that fail :func:`validate_stack`, raise ValueError.
    """
    return _build_stack(cfg, seed, lambda i, omegas: tensors, False)


def _manifest_line(name, shape: Tuple[int, ...], offset: int) -> str:
    """``name d0xd1x... offset``, the one entry rule of writer and reader: a
    name without whitespace and a non-empty shape, or ValueError."""
    if not isinstance(name, str) or not name or any(ch.isspace() for ch in name):
        raise ValueError(f"invalid tensor name {name!r}")
    if len(shape) < 1:
        raise ValueError(f"tensor {name!r} must be at least 1-dimensional")
    if min(shape) < 1:
        raise ValueError(f"tensor {name!r} must be non-empty, got shape {shape}")
    return f"{name} {'x'.join(str(s) for s in shape)} {offset}"


def save_tensors(path, tensors: Mapping[str, np.ndarray]) -> None:
    """Write named float64 tensors to the flat binary container format.

    UTF-8 manifest: a magic line, then ``name d0xd1x... offset`` per
    tensor (offsets into the payload, insertion order), a blank line,
    then the little-endian float64 payload. Names must be non-empty and
    contain no whitespace; tensors must be non-empty, at least 1-dimensional
    (store scalars as shape-(1,) arrays) and real, checked before any file
    is written, each then written from its own array. Non-finite values
    are kept: they load back exactly.
    """
    lines, arrays, offset = [TENSOR_MAGIC], [], 0
    for name, arr in tensors.items():
        a = np.asarray(arr)
        lines.append(_manifest_line(name, a.shape, offset))
        arrays.append(np.asarray(_real_array(a, f"tensor {name!r}"), dtype=np.float64))
        offset += 8 * a.size
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(("\n".join(lines) + "\n\n").encode("utf-8"))
        for a in arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f8").data)


def load_tensors(path) -> dict:
    """Read a container written by :func:`save_tensors`; name -> tensor.

    Manifest lines must be as :func:`save_tensors` writes them, and their
    offsets must tile the payload exactly, in manifest order: each tensor
    starts where the previous one ends, the first at 0, and the last ends
    at the end of the file. Aliased, overlapping, reordered or gapped
    offsets and trailing bytes raise ValueError. Each tensor is read into
    its own array once its size is known to fit in the (seekable) file.
    """
    with open(path, "rb") as fh:
        if not fh.seekable():
            raise ValueError(f"{path}: a container must be a seekable file, not a pipe")
        raw = []
        for line in fh:
            if line == b"\n" and raw:
                break
            raw.append(line)
        else:
            raise ValueError(f"{path}: missing manifest terminator")
        lines = b"".join(raw).decode("utf-8")[:-1].split("\n")
        if lines[0] != TENSOR_MAGIC:
            raise ValueError(f"{path}: bad magic line {lines[0]!r}")
        payload_bytes = os.fstat(fh.fileno()).st_size - fh.tell()
        out = {}
        expected_offset = 0
        for line in lines[1:]:
            try:
                name, shape_s, off_s = line.split(" ")
                shape = tuple(int(s) for s in shape_s.split("x"))
                offset = int(off_s)
                if _manifest_line(name, shape, offset) != line:
                    raise ValueError
            except ValueError:
                raise ValueError(f"{path}: malformed manifest line {line!r}") from None
            if name in out:
                raise ValueError(f"{path}: duplicate tensor name {name!r}")
            if offset != expected_offset:
                raise ValueError(
                    f"{path}: tensor {name!r} starts at payload offset {offset}, "
                    f"expected {expected_offset}"
                )
            nbytes = 8 * math.prod(shape)
            arr = np.empty(shape, dtype="<f8") if offset + nbytes <= payload_bytes else None
            if arr is None or fh.readinto(arr.data) != nbytes:
                raise ValueError(f"{path}: payload truncated for tensor {name!r}")
            out[name] = arr.astype(np.float64, copy=False)
            expected_offset = offset + nbytes
    if expected_offset != payload_bytes:
        raise ValueError(f"{path}: {payload_bytes - expected_offset} bytes after the last tensor")
    return out
