"""The benchmark's workloads, written against mixerlab's public API.

Each workload is a closed loop with one client: the next op starts when
the previous one returns. Every op gets a fresh input drawn from a numpy
Generator seeded by (workload seed, op index), never from
``mixerlab.rng``, so a refactor of the package's own streams cannot
change the inputs, and no two ops see the same input.

Package functions are always looked up on the module at call time
(``ml.stack_forward``, ``ml.cli.main``) so that the tracer's wrappers,
when installed, see every call.

Why these:

* ``softmax-stack``: attention and the FFW do the work and ssm none; a
  scan change must leave it unchanged.
* ``structure-audit``: mixer_core.check_structure and diagnostics do the
  work at T=320, above the range an exact sweep is kept for; the three
  scan mixers are materialized here.
* ``cli-reports``: the ``diagnose`` and ``equiv`` commands run in
  process; the only workload that runs cli, _io and rng, and the one
  that runs the ssm scans, at T <= 32.
* ``hydra-stack`` (runnable, but not in BENCHMARK.json): the ssm layer
  at block shape does almost all the work. Its interpreter-bound scan
  loop tracks the host's speed drift too closely for its run-to-run
  spread to stay within a 25% bound; see NOTES.md.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
from pathlib import Path

import numpy as np

# max-abs tolerance against the materialized reference (the package's
# equivalence tolerance)
REF_TOL = 1e-9
# length of the fixed input forwarded twice by the determinism check;
# short, because the check runs outside the timed loop on every run
FIXED_T = 32
# the CSV files one cli-reports op writes and checks
REPORT_FILES = ("rank_report.csv", "l2_hist.csv", "locality.csv", "approx_curve.csv", "equiv.csv")


def op_rng(seed: int, index: int) -> np.random.Generator:
    """The input stream of op ``index`` of a run with workload seed ``seed``."""
    return np.random.default_rng(np.random.SeedSequence([seed, index]))


def _sha(*chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else repr(c).encode())
    return h.hexdigest()


class StackWorkload:
    """``stack_forward`` of the latent-denoiser preset on a fresh (T, 256) input."""

    def __init__(self, name: str, kind: str, T: int, trace_ops: int):
        self.name, self.kind, self.T, self.trace_ops = name, kind, T, trace_ops

    def setup_code(self, seed: int) -> str:
        return (
            "import mixerlab\n"
            f"cfg = mixerlab.BlockStackConfig.preset('latent-denoiser', mixer_kind={self.kind!r})\n"
            f"mixerlab.init_stack(cfg, {seed})\n"
        )

    def setup(self, ml, seed: int) -> None:
        self.ml = ml
        self.cfg = ml.BlockStackConfig.preset("latent-denoiser", mixer_kind=self.kind)
        self.blocks = ml.init_stack(self.cfg, seed)

    def make_input(self, seed: int, index: int, tag: str):
        x = op_rng(seed, index).standard_normal((self.T, self.cfg.d_model))
        return self.ml.FeatureSequence(x)

    def fixed_input(self, seed: int):
        """A short input on a stream no op uses, for the forward-twice check."""
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
        return self.ml.FeatureSequence(rng.standard_normal((FIXED_T, self.cfg.d_model)))

    def input_digest(self, x) -> str:
        return _sha(x.data.tobytes())

    def run_op(self, x):
        return self.ml.stack_forward(x, self.cfg, self.blocks).data

    def digest(self, out) -> str:
        return _sha(out.tobytes())

    def check(self, x, out):
        """None when ``out`` matches the materialized reference, else why not."""
        if out.shape != x.data.shape or not np.all(np.isfinite(out)):
            return f"output has shape {out.shape} or non-finite entries"
        err = float(np.max(np.abs(out - self.reference(x.data))))
        if err > REF_TOL:
            return f"max abs error {err:.3e} against the reference exceeds {REF_TOL:g}"
        return None

    def reference(self, x: np.ndarray) -> np.ndarray:
        """The stack rebuilt from public stage functions, with each mixer
        replaced by its materialized T x T form."""
        ml = self.ml
        y = x
        for block in self.blocks:
            y = y + ml.ffw_apply(ml.FeatureSequence(y), block.ffw_in).data
            y = y + self._mixer_reference(y, block.mixer_config)
            y = y + ml.silu(ml.dilated_dw_conv(ml.FeatureSequence(y), block.conv).data)
            y = y + ml.ffw_apply(ml.FeatureSequence(y), block.ffw_out).data
            y = ml.layer_norm_apply(ml.FeatureSequence(y), block.norm_scale, block.norm_shift).data
        return y

    def _mixer_reference(self, y: np.ndarray, mc) -> np.ndarray:
        ml = self.ml
        T = y.shape[0]
        if self.kind == "hydra":
            fwd = ml.selective_parameterize(ml.FeatureSequence(y), mc.fwd)
            bwd = ml.selective_parameterize(ml.FeatureSequence(y[::-1]), mc.bwd)
            m = ml.hydra_mixer(ml.HydraParams(fwd, bwd, np.zeros(T))).m
            return (m @ y + y * mc.diag_gain) @ mc.out_proj
        w = mc.weights
        q_all, k_all, v_all = y @ w.wq, y @ w.wk, y @ w.wv
        dh = mc.head_config.d_head
        heads = []
        for h in range(mc.head_config.num_heads):
            sl = slice(h * dh, (h + 1) * dh)
            q = ml.apply_rope(q_all[:, sl], mc.rope)
            k = ml.apply_rope(k_all[:, sl], mc.rope)
            heads.append(ml.softmax_mixer(q, k).m @ v_all[:, sl])
        return np.concatenate(heads, axis=1) @ w.wo


class StructureAuditWorkload:
    """Materialize five mixers at T=320, check each one's structural class
    and build its diagnostic report; also check the hydra matrix against
    a class it does not have, which must be rejected."""

    name = "structure-audit"

    def __init__(self, T: int = 320, N: int = 16, d_head: int = 64, r: int = 64,
                 trace_ops: int = 2):
        self.T, self.N, self.d_head, self.r, self.trace_ops = T, N, d_head, r, trace_ops

    def setup_code(self, seed: int) -> str:
        return "import mixerlab\n"

    def setup(self, ml, seed: int) -> None:
        self.ml = ml
        self.mistag = ml.MixerClass.semiseparable(self.N)

    def _scan_params(self, rng):
        # slow decays keep distant entries above the rank tolerance, so
        # off-diagonal blocks reach their full order
        T, N = self.T, self.N
        return self.ml.ScanParams(
            a=rng.uniform(0.8, 1.0, T), b=rng.standard_normal((T, N)), c=rng.standard_normal((T, N))
        )

    def _features(self, rng):
        # blockwise-orthogonal rows with chi-distributed norms, drawn here
        # rather than by mixerlab.rng
        d, r = self.d_head, self.r
        rows = []
        for start in range(0, r, d):
            q_f, _ = np.linalg.qr(rng.standard_normal((d, d)))
            rows.append(q_f.T[: min(d, r - start)])
        omega = np.vstack(rows) * np.sqrt(rng.chisquare(d, size=r))[:, None]
        return self.ml.OrthogonalFeatureMatrix(omega=omega, seed=0)

    def make_input(self, seed: int, index: int, tag: str):
        ml, rng = self.ml, op_rng(seed, index)
        scale = 1.0 / np.sqrt(self.d_head)
        return {
            "ssm": self._scan_params(rng),
            "bimamba": ml.BiMambaParams(self._scan_params(rng), self._scan_params(rng)),
            "hydra": ml.HydraParams(
                self._scan_params(rng), self._scan_params(rng), rng.standard_normal(self.T)
            ),
            "q": rng.standard_normal((self.T, self.d_head)) * scale,
            "k": rng.standard_normal((self.T, self.d_head)) * scale,
            "omega": self._features(rng),
        }

    def input_digest(self, inp) -> str:
        return _sha(inp["ssm"].b.tobytes(), inp["q"].tobytes(), inp["omega"].omega.tobytes())

    def run_op(self, inp):
        ml = self.ml
        mixers = (
            ("ssm", ml.ssm_mixer(inp["ssm"])),
            ("bimamba", ml.bimamba_mixer(inp["bimamba"])),
            ("hydra", ml.hydra_mixer(inp["hydra"])),
            ("softmax", ml.softmax_mixer(inp["q"], inp["k"])),
            ("favor", ml.favor_mixer(inp["q"], inp["k"], inp["omega"])),
        )
        audits = tuple(
            (label, ml.check_structure(mx), ml.build_mixer_report(mx, label))
            for label, mx in mixers
        )
        return audits, ml.check_structure(mixers[2][1], class_tag=self.mistag)

    def digest(self, out) -> str:
        audits, mistag = out
        parts = []
        for label, rep, diag in audits + (("mistag", mistag, None),):
            parts += [label, rep.checked_class.describe(), rep.max_offdiag_block_rank, rep.violations]
            if diag is not None:
                h = diag.l2_histogram
                parts += [diag.rank, diag.row_sum_range, diag.windows, diag.locality,
                          h.bin_edges.tobytes(), h.counts.tobytes(), h.total]
        return _sha(*parts)

    def check(self, inp, out):
        audits, mistag = out
        for label, rep, _ in audits:
            order = rep.checked_class.order
            if not rep.ok:
                return f"{label}: {len(rep.violations)} violations of {rep.checked_class.describe()}"
            if order is not None and rep.max_offdiag_block_rank > order:
                return f"{label}: block rank {rep.max_offdiag_block_rank} above order {order}"
        if mistag.ok:
            return "hydra matrix passed as semiseparable; the negative control must fail"
        return None


class CliReportsWorkload:
    """In-process ``mixerlab diagnose --T 512`` and then ``mixerlab equiv
    --cases 20``, with a fresh seed per op, as a user would run the two
    report commands.

    ``equiv`` is kept short: its scans at T <= 32 spend their time in the
    interpreter, which tracks the host's speed drift more closely than
    the LAPACK work of ``diagnose`` does, so a large share of it would
    widen the run-to-run spread."""

    name = "cli-reports"

    def __init__(self, out_root: Path, T: int = 512, cases: int = 20, trace_ops: int = 2):
        self.out_root, self.T, self.cases, self.trace_ops = Path(out_root), T, cases, trace_ops

    def setup_code(self, seed: int) -> str:
        return "import mixerlab\n"

    def setup(self, ml, seed: int) -> None:
        self.ml = ml

    def make_input(self, seed: int, index: int, tag: str):
        op_seed = str(int(op_rng(seed, index).integers(0, 2**62)))
        out = str(self.out_root / f"{tag}{index}")
        return (
            ["diagnose", "--T", str(self.T), "--seed", op_seed, "--out", out],
            ["equiv", "--cases", str(self.cases), "--seed", op_seed, "--out", out],
        )

    def input_digest(self, argvs) -> str:
        return _sha(argvs[0][4])

    def run_op(self, argvs):
        with contextlib.redirect_stdout(io.StringIO()):
            codes = tuple(self.ml.cli.main(argv) for argv in argvs)
        out = Path(argvs[0][-1])
        return codes, tuple((out / name).read_bytes() for name in REPORT_FILES)

    def digest(self, out) -> str:
        codes, files = out
        return _sha(codes, *files)

    def check(self, argvs, out):
        codes, files = out
        if codes != (0, 0):
            return f"exit codes {codes}"
        tables = {
            name: list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
            for name, data in zip(REPORT_FILES, files)
        }
        for check in (self._check_rank, self._check_hist, self._check_locality,
                      self._check_approx, self._check_equiv):
            why = check(tables)
            if why:
                return why
        return None

    def _check_rank(self, tables):
        rows = tables["rank_report.csv"]
        kinds = [r["mixer_kind"] for r in rows]
        if kinds != ["softmax", "favor"] * 4 + ["softmax_mean", "favor_mean"]:
            return f"rank_report.csv rows are {kinds}"
        for r in rows:
            rank, bound = int(r["rank"]), self.T
            if r["r"]:  # a FAVOR map has rank at most r, a mean of four at most 4r
                bound = int(r["r"]) * (4 if r["mixer_kind"] == "favor_mean" else 1)
            if int(r["T"]) != self.T or not 1 <= rank <= bound:
                return f"rank_report.csv: {r['mixer_kind']} rank {rank} outside [1, {bound}]"
        return None

    def _check_hist(self, tables):
        pairs = self.T * (self.T - 1) // 2
        for kind in ("softmax", "favor"):
            total = sum(int(r["count"]) for r in tables["l2_hist.csv"] if r["mixer_kind"] == kind)
            if total != pairs:
                return f"l2_hist.csv: {kind} counts {total} of {pairs} row pairs"
        return None

    def _check_locality(self, tables):
        # row-stochastic maps: mass grows with the window and is 1 at T - 1
        for kind in ("softmax", "favor"):
            rows = [r for r in tables["locality.csv"] if r["mixer_kind"] == kind]
            mass = [float(r["mass"]) for r in rows]
            if (not rows or int(rows[-1]["window"]) != self.T - 1
                    or any(b < a - REF_TOL for a, b in zip(mass, mass[1:]))
                    or abs(mass[-1] - 1.0) > REF_TOL):
                return f"locality.csv: {kind} mass {mass} is not a growing share ending at 1"
        return None

    def _check_approx(self, tables):
        rows = tables["approx_curve.csv"]
        err = [float(r["median_rel_err"]) for r in rows]
        if not rows or not all(np.isfinite(e) and e > 0 for e in err) or err[-1] >= err[0]:
            return f"approx_curve.csv: errors {err} do not fall from the smallest r to the largest"
        return None

    def _check_equiv(self, tables):
        rows = tables["equiv.csv"]
        kinds = [r["case"] for r in rows]
        if kinds != ["ssm", "bimamba", "hydra", "favor"]:
            return f"equiv.csv rows are {kinds}"
        for r in rows:
            if r["pass"] != "true" or not float(r["max_abs_err"]) <= REF_TOL:
                return f"{r['case']}: max_abs_err {r['max_abs_err']} pass={r['pass']}"
        return None


def make_workload(name: str, out_root: Path):
    if name == "hydra-stack":
        return StackWorkload(name, "hydra", T=256, trace_ops=1)
    if name == "softmax-stack":
        return StackWorkload(name, "softmax", T=2048, trace_ops=1)
    if name == "structure-audit":
        return StructureAuditWorkload()
    if name == "cli-reports":
        return CliReportsWorkload(out_root)
    raise ValueError(f"unknown workload {name!r}")


# hydra-stack runs, but is not in BENCHMARK.json: see NOTES.md
WORKLOADS = ("hydra-stack", "softmax-stack", "structure-audit", "cli-reports")
