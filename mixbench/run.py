"""Run one benchmark workload against the mixerlab source in this checkout.

    python3 mixbench/run.py --workload softmax-stack --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics (ops_per_s, op_s_p50,
setup_s, peak_rss_mb) with no tracer loaded. ``--trace 1`` runs a fixed
number of ops untraced, the same ops again under the span tracer, and
one op under the tracemalloc pass, and reports the per-layer metrics.
Either way every output is checked, failures are counted and the run
goes on; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. A record of the
run, with the machine and library stack, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
# a traced op whose spans leave more than this share of its wall time
# uncovered fails the accounting self-check
UNACCOUNTED_LIMIT = 0.05


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be non-negative and --seconds positive")
    return args


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            sizes[f"L{level}"] = size
    return sizes


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable: not a git checkout"
    try:
        res = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        return f"unavailable: {e}"
    return res.stdout.strip() if res.returncode == 0 else "unavailable: git failed"


def environment(np, numpy_preloaded: bool) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "numpy_imported_before_thread_vars": numpy_preloaded,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cache": _cache_sizes(),
        "git_commit": _git_commit(),
    }


def setup_seconds(wl, seed: int) -> list:
    """Import mixerlab and build the workload's model state in fresh
    interpreters; each sample is timed inside its child."""
    code = ("import time\nt0 = time.perf_counter()\n" + wl.setup_code(seed)
            + "print(repr(time.perf_counter() - t0))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    samples = []
    for _ in range(SETUP_SAMPLES):
        res = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(res.stdout.split()[-1]))
    return samples


class Ops:
    """Run ops and keep, per op, its latency, output digest and the
    failure that stopped it, if any."""

    def __init__(self, wl):
        self.wl = wl
        self.latency, self.outputs, self.digests, self.errors = [], [], [], []

    def run(self, inp) -> None:
        clock = time.perf_counter
        t0 = clock()
        try:
            out = self.wl.run_op(inp)
        except Exception:  # a failed op is counted and the run continues
            self.latency.append(clock() - t0)
            self.fail(len(self.outputs), traceback.format_exc())
            self.outputs.append(None)
            self.digests.append(None)
            return
        self.latency.append(clock() - t0)
        self.outputs.append(out)
        self.digests.append(self.wl.digest(out))
        self.errors.append(None)

    def fail(self, i: int, why: str) -> None:
        """Mark op ``i`` failed; an op counts once however many checks it fails."""
        print(f"[{self.wl.name}] op {i} failed: {why}", file=sys.stderr)
        if len(self.errors) > i:
            self.errors[i] = self.errors[i] or why
        else:
            self.errors.append(why)

    def check(self, inputs) -> None:
        """Check every completed output against its input."""
        for i, (inp, out) in enumerate(zip(inputs, self.outputs)):
            if out is None:
                continue
            try:
                why = self.wl.check(inp, out)
            except Exception:
                why = traceback.format_exc()
            if why:
                self.fail(i, why)

    def completed_latency(self) -> list:
        return [t for t, e in zip(self.latency, self.errors) if e is None]

    @property
    def failed(self) -> int:
        return sum(e is not None for e in self.errors)


def untraced_run(ml, wl, seed: int, seconds: float):
    """Closed loop for ``seconds``; returns (metrics, attempted, failed, record)."""
    setup = setup_seconds(wl, seed)
    ops = Ops(wl)
    input_digests = []
    start = time.perf_counter()
    while not ops.latency or time.perf_counter() - start < seconds:
        i = len(ops.latency)
        inp = wl.make_input(seed, i, "op")
        input_digests.append(wl.input_digest(inp))
        ops.run(inp)
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    n = len(ops.latency)
    ops.check([wl.make_input(seed, i, "op") for i in range(n)])
    attempted, failed = n, ops.failed
    reused = n - len(set(input_digests))
    if reused:
        print(f"[{wl.name}] {reused} ops repeated an earlier input", file=sys.stderr)
        attempted, failed = attempted + 1, failed + 1
    if hasattr(wl, "fixed_input"):
        # one fixed input, forwarded twice, must give the same bytes
        twice = Ops(wl)
        for _ in range(2):
            twice.run(wl.fixed_input(seed))
        attempted += 1
        if twice.failed or twice.digests[0] != twice.digests[1]:
            print(f"[{wl.name}] forwarding one input twice changed the output", file=sys.stderr)
            failed += 1

    done = ops.completed_latency()
    metrics = {
        "ops_per_s": (len(done) / sum(ops.latency), "1/s"),
        "op_s_p50": (statistics.median(done or ops.latency), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    record = {"latency_s": ops.latency, "setup_samples_s": setup, "phase_wall_s": wall,
              "output_digests": ops.digests, "errors": ops.errors,
              "error_rate": failed / attempted, "tail_latency_s": tail_latency(done)}
    return metrics, attempted, failed, record


def tail_latency(latency) -> dict:
    """The highest of p90 and p75 with at least ten samples beyond it.

    Runs of ``--seconds 20`` hold too few ops for one on any workload, so
    it stays out of the result line; when a longer run has one, it is
    printed and kept in the run record.
    """
    for p in (90, 75):
        if len(latency) * (100 - p) / 100 >= 10:
            return {f"op_s_p{p}": statistics.quantiles(latency, n=100)[p - 1]}
    return {}


def traced_run(ml, wl, seed: int):
    """Fixed op count, so counts repeat exactly on the same seed."""
    k = wl.trace_ops
    inputs = {tag: [wl.make_input(seed, i, tag) for i in range(k)] for tag in ("u", "t")}
    alloc_input = wl.make_input(seed, 0, "a")

    plain = Ops(wl)
    for inp in inputs["u"]:
        plain.run(inp)

    import tracer  # loaded only now: the untraced ops ran without it

    with tracer.Tracer(ml) as tr:
        tr.op = -1
        wl.setup(ml, seed)  # the traced set-up pass (blocks.init_stack)
        traced = Ops(wl)
        for i, inp in enumerate(inputs["t"]):
            tr.op = i
            traced.run(inp)
    with tracer.Tracer(ml, mode="alloc") as ta:
        ta.op = 0
        allocs = Ops(wl)
        allocs.run(alloc_input)

    plain.check(inputs["u"])
    for i in range(k):
        if traced.digests[i] != plain.digests[i]:
            traced.fail(i, "traced output differs from the untraced output")
    if allocs.digests[0] != plain.digests[0]:
        allocs.fail(0, "tracemalloc-pass output differs from the untraced output")

    spans = tr.arrays()
    unaccounted = []
    for i in range(k):
        top, self_sum = tracer.top_level_seconds(spans, i)
        wall = traced.latency[i]
        unaccounted.append(wall - top)
        if abs(top - self_sum) > 1e-6 * max(top, 1.0) or wall - top > UNACCOUNTED_LIMIT * wall:
            traced.fail(i, f"spans cover {top:.6f} s (self sum {self_sum:.6f} s) "
                            f"of {wall:.6f} s wall time")

    metrics = tracer.layer_metrics(spans, range(k))
    metrics.update(tracer.peak_alloc_metrics(ta, [0]))
    metrics["trace.overhead"] = (sum(traced.latency) / sum(plain.latency) - 1.0, "ratio")
    metrics["trace.unaccounted_s"] = (statistics.median(unaccounted), "s")

    attempted = 2 * k + 1
    failed = plain.failed + traced.failed + allocs.failed
    record = {"untraced_latency_s": plain.latency, "traced_latency_s": traced.latency,
              "output_digests": plain.digests, "errors": plain.errors + traced.errors + allocs.errors,
              "spans": spans}
    return metrics, attempted, failed, record


def main(argv=None) -> int:
    numpy_preloaded = "numpy" in sys.modules
    for var in THREAD_VARS:  # before numpy loads BLAS: single-threaded by contract
        os.environ[var] = "1"
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    args = parse_args(argv)
    if not (SRC / "mixerlab" / "__init__.py").is_file():
        print(f"mixbench: no mixerlab source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import mixerlab as ml
    from workloads import make_workload

    if Path(ml.__file__).resolve().parent != SRC / "mixerlab":
        print(f"mixbench: imported mixerlab from {ml.__file__}, not {SRC}", file=sys.stderr)
        return 2

    scratch = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(scratch, ignore_errors=True)
    wl = make_workload(args.workload, scratch)
    wl.setup(ml, args.seed)
    if args.trace:
        metrics, attempted, failed, record = traced_run(ml, wl, args.seed)
        import tracer

        OUT.mkdir(exist_ok=True)
        tracer.save_spans(OUT / f"{scratch.name}-spans.npz", record.pop("spans"))
    else:
        metrics, attempted, failed, record = untraced_run(ml, wl, args.seed, args.seconds)
    shutil.rmtree(scratch, ignore_errors=True)

    env = environment(np, numpy_preloaded)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:.6g} {unit}")
    for name, value in record.get("tail_latency_s", {}).items():
        print(f"{name:48s} {value:.6g} s (not in the result line)")
    print(f"{'error_rate':48s} {failed / attempted:.6g} ratio ({failed} of {attempted})")
    print("env " + json.dumps(env, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    (scratch.parent / f"{scratch.name}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
