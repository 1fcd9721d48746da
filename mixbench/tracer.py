"""Outside-in span tracer for mixerlab's public functions.

The tracer replaces each listed function with a wrapper in every
``mixerlab`` module namespace that binds it (re-exports in
``mixerlab/__init__``, names that ``cli`` and ``blocks`` import, and
module-level dispatch tables such as ``cli._COMMANDS``), so calls made
inside the package are traced too. ``FeatureSequence`` is traced
through its ``__post_init__``. Nothing in ``src/`` changes; the wrappers
are removed again on exit.

Two modes, never mixed in one pass:

* ``"time"`` records a span per call: function, start, end, parent span
  and op id, plus a computed work count for the few functions that have
  one. Spans stay in memory until the run writes them out.
* ``"alloc"`` records, per call, the tracemalloc peak above the traced
  level at entry. Kept separate so tracemalloc's bookkeeping does not
  inflate the timed pass.
"""

from __future__ import annotations

import statistics
import sys
import tracemalloc
from time import perf_counter

import numpy as np

# (metric module name, defining module, function names); "io" stands for
# mixerlab._io because a metric name must start with a letter
LAYERS = (
    ("blocks", "blocks", (
        "stack_forward", "block_forward", "ffw_apply", "mixer_apply",
        "dilated_dw_conv", "silu", "layer_norm_apply", "init_stack",
    )),
    ("ssm", "ssm", (
        "selective_parameterize", "hydra_channelwise", "bimamba_channelwise",
        "hydra_apply", "bimamba_apply", "ssm_scan", "ssm_mixer",
        "bimamba_mixer", "hydra_mixer",
    )),
    ("attention", "attention", (
        "multi_head_attention", "apply_rope", "softmax_attention",
        "favor_attention", "positive_feature_map", "softmax_mixer",
        "favor_mixer", "draw_orthogonal_features",
    )),
    ("mixer_core", "mixer_core", ("FeatureSequence", "apply_mixer", "check_structure")),
    ("diagnostics", "diagnostics", (
        "build_mixer_report", "numerical_rank", "pairwise_l2_histogram",
        "locality_mass", "approximation_error_curve",
    )),
    ("cli", "cli", ("main", "resolve_config", "cmd_equiv", "cmd_diagnose")),
    ("io", "_io", ("write_csv",)),
    ("rng", "rng", ("make_rng", "derive_seed")),
)

SPAN_NAMES = tuple(f"{m}.{f}" for m, _, fns in LAYERS for f in fns)

PEAK_ALLOC_SPANS = (
    "blocks.block_forward", "blocks.mixer_apply", "attention.softmax_attention",
    "ssm.hydra_channelwise", "ssm.hydra_mixer", "mixer_core.check_structure",
    "cli.main",
)

STAGES = ("ffw_in", "mixer", "conv", "ffw_out", "norm")


def _ffw_gflop(x, w, *args, **kwargs):
    # two matmuls, (T, d) @ (d, h) and (T, h) @ (h, d); bias and silu omitted
    return 4.0 * x.T * x.d * w.w1.shape[1] / 1e9


def _softmax_gflop(qkv, *args, **kwargs):
    # logits (T, dh) @ (dh, T) and mixing (T, T) @ (T, dh); exp omitted
    return 4.0 * qkv.T * qkv.T * qkv.d_head / 1e9


def _scan_updates(params, *args, **kwargs):
    return float(params.T * params.N)


def _structure_svds(mixer, tol=None, class_tag=None):
    tag = mixer.class_tag if class_tag is None else class_tag
    if tag.kind in ("semiseparable", "quasiseparable"):
        return float(2 * (mixer.T - 1) + 1)
    return 2.0


def _sequence_mb(self):
    # construction copies the data to a fresh float64 array
    return np.size(self.data) * 8 / 1e6


# computed work counts, recorded per span from the call's arguments
COUNTS = {
    "blocks.ffw_apply": _ffw_gflop,
    "attention.softmax_attention": _softmax_gflop,
    "ssm.ssm_scan": _scan_updates,
    "mixer_core.check_structure": _structure_svds,
    "mixer_core.FeatureSequence": _sequence_mb,
}


class Tracer:
    """Install wrappers on enter, remove them on exit.

    Spans are kept as parallel lists and read back with :meth:`arrays`.
    Set :attr:`op` before each op; spans carry it as their op id.
    """

    def __init__(self, package, mode: str = "time"):
        if mode not in ("time", "alloc"):
            raise ValueError(f"mode must be 'time' or 'alloc', got {mode!r}")
        self.package = package
        self.mode = mode
        self.op = -1
        self.fid, self.t0, self.t1, self.parent, self.ops, self.count = [], [], [], [], [], []
        self.peaks = []  # alloc mode: (fid, op, transient peak bytes)
        self._stack = []
        self._undo = []

    def __enter__(self) -> "Tracer":
        if self.mode == "alloc" and tracemalloc.is_tracing():
            raise RuntimeError("tracemalloc is already tracing")
        pkg = self.package.__name__
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == pkg or name.startswith(pkg + "."))]
        originals = {}
        fid = 0
        for layer, home, fns in LAYERS:
            mod = sys.modules[f"{pkg}.{home}"]
            for fn in fns:
                name = f"{layer}.{fn}"
                if fn == "FeatureSequence":
                    cls = getattr(mod, fn)
                    orig = cls.__dict__["__post_init__"]
                    self._undo.append((cls, "__post_init__", orig))
                    setattr(cls, "__post_init__", self._wrap(orig, fid, name))
                else:
                    originals[id(getattr(mod, fn))] = (getattr(mod, fn), fid, name)
                fid += 1
        wrappers = {key: self._wrap(orig, fid, name)
                    for key, (orig, fid, name) in originals.items()}
        # keyed by id: module attributes need not be hashable, and the
        # originals stay referenced, so their ids cannot be reused
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in originals:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in originals:
                            self._undo.append((value, key, item))
                            value[key] = wrappers[id(item)]
        if self.mode == "alloc":
            tracemalloc.start()
        return self

    def __exit__(self, *exc) -> None:
        if self.mode == "alloc":
            tracemalloc.stop()
        for target, key, orig in reversed(self._undo):
            if isinstance(target, dict):
                target[key] = orig
            else:
                setattr(target, key, orig)
        self._undo.clear()

    def _wrap(self, fn, fid: int, name: str):
        if self.mode == "alloc":
            return self._wrap_alloc(fn, fid)
        count = COUNTS.get(name)
        stack = self._stack
        fids, t0s, t1s, parents, ops, counts = (
            self.fid, self.t0, self.t1, self.parent, self.ops, self.count)

        def traced(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op)
            counts.append(0.0)
            t1s.append(0.0)
            stack.append(idx)
            t0s.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1s[idx] = perf_counter()
                stack.pop()
            if count is not None:
                counts[idx] = count(*args, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_alloc(self, fn, fid: int):
        stack = self._stack  # frames: [level at entry, highest level seen]
        peaks = self.peaks

        def traced(*args, **kwargs):
            _, peak = tracemalloc.get_traced_memory()
            if stack:
                stack[-1][1] = max(stack[-1][1], peak)
            tracemalloc.reset_peak()
            current, _ = tracemalloc.get_traced_memory()
            frame = [current, current]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                _, peak = tracemalloc.get_traced_memory()
                frame[1] = max(frame[1], peak)
                stack.pop()
                if stack:
                    stack[-1][1] = max(stack[-1][1], frame[1])
                tracemalloc.reset_peak()
                peaks.append((fid, self.op, frame[1] - frame[0]))

        traced.__wrapped__ = fn
        return traced

    def arrays(self) -> dict:
        """Spans as numpy arrays, with duration and self time derived."""
        fid = np.array(self.fid, dtype=np.int64)
        t0 = np.array(self.t0)
        t1 = np.array(self.t1)
        parent = np.array(self.parent, dtype=np.int64)
        dur = t1 - t0
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested], minlength=fid.size)
        return {
            "fid": fid, "t0": t0, "t1": t1, "parent": parent,
            "op": np.array(self.ops, dtype=np.int64),
            "count": np.array(self.count), "dur": dur, "self": dur - covered,
        }


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _per_op(spans: dict, op_ids, mask, field: str):
    return [float(spans[field][mask & (spans["op"] == op)].sum()) for op in op_ids]


def layer_metrics(spans: dict, op_ids) -> dict:
    """Per-op layer metrics: medians over ``op_ids`` of per-op sums.

    ``blocks.init_stack`` runs only in set-up, so its figures come from
    the traced set-up pass, op id -1, instead of the ops.
    """
    out = {}
    fid = spans["fid"]
    for i, name in enumerate(SPAN_NAMES):
        ids = [-1] if name == "blocks.init_stack" else op_ids
        mask = fid == i
        out[f"{name}.calls"] = (_median([int((mask & (spans["op"] == op)).sum()) for op in ids]), "count")
        out[f"{name}.self_s"] = (_median(_per_op(spans, ids, mask, "self")), "s")

    def rate(name, count_metric, count_unit, rate_metric, rate_unit):
        mask = fid == SPAN_NAMES.index(name)
        work = _per_op(spans, op_ids, mask, "count")
        busy = _per_op(spans, op_ids, mask, "dur")
        out[f"{name}.{count_metric}"] = (_median(work), count_unit)
        if rate_metric:
            out[f"{name}.{rate_metric}"] = (
                _median([w / b if b > 0 else 0.0 for w, b in zip(work, busy)]), rate_unit)

    rate("blocks.ffw_apply", "gflop", "GFLOP", "gflop_per_s", "GFLOP/s")
    rate("attention.softmax_attention", "gflop", "GFLOP", "gflop_per_s", "GFLOP/s")
    rate("ssm.ssm_scan", "state_updates", "count", "updates_per_s", "1/s")
    rate("mixer_core.check_structure", "svds", "count", None, None)
    rate("mixer_core.FeatureSequence", "mb_copied", "MB", None, None)

    for stage, seconds in stage_seconds(spans, op_ids).items():
        out[f"stage.{stage}.s"] = (seconds, "s")
    return out


def stage_seconds(spans: dict, op_ids) -> dict:
    """The five block stages, summed over a stack's blocks, median per op.

    Stages are read from the children of each ``block_forward`` span: the
    first and second ``ffw_apply`` are ffw_in and ffw_out, conv is
    ``dilated_dw_conv`` plus the ``silu`` called directly by the block.
    """
    fid, parent, dur, ops = spans["fid"], spans["parent"], spans["dur"], spans["op"]
    block = SPAN_NAMES.index("blocks.block_forward")
    child_stage = {
        SPAN_NAMES.index("blocks.mixer_apply"): "mixer",
        SPAN_NAMES.index("blocks.dilated_dw_conv"): "conv",
        SPAN_NAMES.index("blocks.silu"): "conv",
        SPAN_NAMES.index("blocks.layer_norm_apply"): "norm",
    }
    ffw = SPAN_NAMES.index("blocks.ffw_apply")
    per_op = {op: dict.fromkeys(STAGES, 0.0) for op in op_ids}
    ffw_seen = {}
    for idx in np.flatnonzero((parent >= 0) & np.isin(ops, list(op_ids))):
        p = parent[idx]
        if fid[p] != block:
            continue
        f = fid[idx]
        if f == ffw:
            nth = ffw_seen.get(p, 0)
            ffw_seen[p] = nth + 1
            stage = "ffw_in" if nth == 0 else "ffw_out"
        elif f in child_stage:
            stage = child_stage[f]
        else:
            continue
        per_op[ops[idx]][stage] += dur[idx]
    return {s: _median([per_op[op][s] for op in op_ids]) for s in STAGES}


def peak_alloc_metrics(alloc: Tracer, op_ids) -> dict:
    """Largest transient peak per listed function within an op, median over ops."""
    out = {}
    for name in PEAK_ALLOC_SPANS:
        i = SPAN_NAMES.index(name)
        per_op = [max((b for f, op, b in alloc.peaks if f == i and op == o), default=0)
                  for o in op_ids]
        out[f"{name}.peak_alloc_mb"] = (_median(per_op) / 1e6, "MB")
    return out


def top_level_seconds(spans: dict, op: int) -> tuple:
    """(sum of top-level span durations, sum of all span self times) for one op."""
    mask = spans["op"] == op
    top = float(spans["dur"][mask & (spans["parent"] < 0)].sum())
    return top, float(spans["self"][mask].sum())


def save_spans(path, spans: dict) -> None:
    np.savez_compressed(path, names=np.array(SPAN_NAMES), **spans)
